//! CRC-16/CCITT-FALSE frame checksum.
//!
//! Polynomial `0x1021`, initial value `0xFFFF`, no bit reflection, no
//! output XOR — the variant whose check value over the ASCII digits
//! `"123456789"` is `0x29B1`. Sixteen bits fit the fixed 16-byte header
//! (see [`crate::frame`]) while still detecting every single-bit flip,
//! every single flipped byte, and every burst of up to 16 bits — the
//! corruption classes the decode suite exercises.
//!
//! # How the checksum is computed
//!
//! A CRC is the remainder of the message polynomial modulo `P`, so any
//! rewrite of the message that preserves it modulo `P` preserves the
//! checksum. The CCITT polynomial is sparse, `P = x¹⁶ + x¹² + x⁵ + 1`,
//! and squaring is linear over GF(2), so
//!
//! ```text
//! P^(2^k) = x^(16·2^k) + x^(12·2^k) + x^(5·2^k) + 1 ≡ 0   (mod P)
//! ```
//!
//! — a message bit with at least `16·2^k` bits behind it can be
//! *dropped* if it is xor-ed into the bits `4·2^k`, `11·2^k` and
//! `16·2^k` places later. All three distances are whole `u64` words for
//! `k ≥ 6`, which turns the CRC of a long message into the recurrence
//!
//! ```text
//! t[q] = in[q] ^ t[q − 4·2^k/64] ^ t[q − 11·2^k/64] ^ t[q − 16·2^k/64]
//! ```
//!
//! over message words: no table, no carry-less multiply, no `unsafe`,
//! nothing but word xors. A word only depends on words at least
//! `4·2^k/64` back, so a *block* of that many words has no internal
//! dependency and its loops are element-wise xors that the compiler
//! turns into full-width vector instructions.
//!
//! **The ring.** Only the last `16·2^k` bits of `t` — one *span*, four
//! blocks — are ever read, so they live in a ring of four blocks on the
//! stack. Block `b` goes to slot `b mod 4`, on top of block `b − 4`
//! (which is exactly its `t[q − 16·2^k/64]` term), reads block `b − 1`
//! whole, and reads its middle term from the tail of block `b − 3` and
//! the head of block `b − 2` (`11·2^k` bits is 2¾ blocks). The caller's
//! `state` is a polynomial of degree < 16 ahead of the message, which is
//! the same as xor-ing it into the first two message bytes; the ring
//! starts out holding just that.
//!
//! **The last span** is what the message has been reduced to, so its
//! words are kept rather than dropped: they still receive what the span
//! before them carries forward, but feed nothing to each other.
//!
//! **Why the rest is a table.** The fold works in whole spans and ends
//! at the end of the message, so the `len mod span` odd bytes go first
//! and the one-span remainder goes last through the classic
//! byte-at-a-time table — under two spans in all — as do inputs shorter
//! than two spans, where folding would leave most of the work to the
//! table anyway. That single 256-entry table is the only one.
//!
//! **Why `k = 8`.** Measured on this repo's 2-core AVX-512 box over
//! `k ∈ 6..=9` with the workspace's `target-cpu=native`: on the 2.1 MB
//! dense frame `k = 8` takes ≈ 50–60 µs warm (6 → ≈ 155, 7 → ≈ 90,
//! 9 → ≈ 120) and 110–180 µs streaming from L3 (7 and 9: 270–350),
//! against ≈ 1 890 µs for the four-lane sliced table it replaces; on a
//! 157 KB frame 7 and 8 tie at ≈ 5 µs. At `k = 8` a block is 128 B and
//! the whole 512 B ring fits in vector registers; at 9 it no longer
//! does, and below 8 the per-block overhead shows. Without
//! `target-cpu=native` (baseline SSE2) the same code runs the 2.1 MB
//! frame in 150–270 µs, the sliced table in ≈ 1 670 µs.
//!
//! **Endianness never enters.** Xor acts on each bit position alone, so
//! the words are loaded and stored in native byte order and the result
//! is the same on either endianness; only the table tail sees bytes in
//! message order.
//!
//! [`crc16_bitwise`] is the definitional bit-at-a-time form, kept public
//! so tests can pin the fast path and the frame layout against it.

const POLY: u16 = 0x1021;
const INIT: u16 = 0xFFFF;

/// Fold exponent `k` (see the module docs; any of `6..=9` is correct).
const FOLD_K: u32 = 8;
/// `u64` words per fold block: the `4·2^k` bits from a dropped word to
/// its nearest target.
const BLOCK_WORDS: usize = (4 << FOLD_K) / 64;
const BLOCK_BYTES: usize = 8 * BLOCK_WORDS;
/// Blocks per span (`16·2^k` bits), which is also the ring.
const RING_BLOCKS: usize = 4;
const SPAN_BYTES: usize = RING_BLOCKS * BLOCK_BYTES;
/// The middle target is `11·2^k` bits on — 2¾ blocks — so block `b`
/// reads block `b − 3` from this word on and block `b − 2` up to it.
const MID_SKEW: usize = BLOCK_WORDS / 4;
/// Inputs shorter than two spans go through the table alone.
const FOLD_CUTOVER: usize = 2 * SPAN_BYTES;

type Block = [u64; BLOCK_WORDS];

/// `TABLE[i]` is byte `i` folded into a zero state (the classic
/// byte-at-a-time CRC table).
const fn build_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut crc = (byte as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
}

static TABLE: [u16; 256] = build_table();

/// Computes the CRC-16/CCITT-FALSE of `bytes`.
///
/// # Example
/// ```
/// assert_eq!(gluefl_wire::crc::crc16(b"123456789"), 0x29B1);
/// ```
#[must_use]
pub fn crc16(bytes: &[u8]) -> u16 {
    crc16_update(INIT, bytes)
}

/// Continues a CRC-16 computation from `state` over `bytes`.
///
/// `crc16(ab)` equals `crc16_update(crc16_update(INIT, a), b)`, so a
/// frame's header and payload can be checksummed without concatenating
/// them into one buffer.
#[must_use]
pub fn crc16_update(state: u16, bytes: &[u8]) -> u16 {
    if bytes.len() < FOLD_CUTOVER {
        return table_update(state, bytes);
    }
    // Whole spans fold; the odd bytes go first, through the table, so
    // the fold ends exactly at the end of the message.
    let (head, body) = bytes.split_at(bytes.len() % SPAN_BYTES);
    let state = table_update(state, head);
    // The ring starts as the state xor-ed into the first two body bytes
    // (block 0 xors its slot's old content in, see `fold_block`).
    let mut ring = [[0u64; BLOCK_WORDS]; RING_BLOCKS];
    let [hi, lo] = state.to_be_bytes();
    ring[0][0] = u64::from_ne_bytes([hi, lo, 0, 0, 0, 0, 0, 0]);

    let (spans, last) = body.split_at(body.len() - SPAN_BYTES);
    for span in spans.chunks_exact(SPAN_BYTES) {
        fold_span(&mut ring, span, true);
    }
    fold_span(&mut ring, last, false);

    // What is left of the message is the ring: one span, from state 0.
    ring.as_flattened()
        .iter()
        .fold(0, |crc, word| table_update(crc, &word.to_ne_bytes()))
}

/// Folds one span of message bytes into `ring`: block `b` of the span
/// lands in slot `b`, on top of the block four back, and reads the
/// blocks one, three and two back from the slots they live in.
///
/// `more` says another span follows. The last span (`more == false`) is
/// what remains of the message, so its blocks are not dropped: they
/// take what the span before them carries forward and feed nothing to
/// each other.
#[inline]
fn fold_span(ring: &mut [Block; RING_BLOCKS], span: &[u8], more: bool) {
    const NONE: Block = [0; BLOCK_WORDS];
    let (b0, rest) = span.split_at(BLOCK_BYTES);
    let (b1, rest) = rest.split_at(BLOCK_BYTES);
    let (b2, b3) = rest.split_at(BLOCK_BYTES);
    let [r0, r1, r2, r3] = ring;
    fold_block(r0, r3, r1, r2, b0);
    if more {
        fold_block(r1, r0, r2, r3, b1);
        fold_block(r2, r1, r3, r0, b2);
        fold_block(r3, r2, r0, r1, b3);
    } else {
        fold_block(r1, &NONE, r2, r3, b1);
        fold_block(r2, &NONE, r3, &NONE, b2);
        fold_block(r3, &NONE, &NONE, &NONE, b3);
    }
}

/// One fold step over a block of message words:
/// `t[q] = in[q] ^ t[q − 4·2^k/64] ^ t[q − 11·2^k/64] ^ t[q − 16·2^k/64]`,
/// where `slot` still holds `t[q − 16·2^k/64]` (four blocks back), `near`
/// is the previous block, and `mid_a`, `mid_b` are three and two blocks
/// back. No word depends on another word of the same block, so each
/// loop is a plain element-wise xor.
#[inline]
fn fold_block(slot: &mut Block, near: &Block, mid_a: &Block, mid_b: &Block, input: &[u8]) {
    for ((t, n), word) in slot.iter_mut().zip(near).zip(input.chunks_exact(8)) {
        *t ^= n ^ u64::from_ne_bytes(word.try_into().expect("8-byte chunk"));
    }
    let (head, tail) = slot.split_at_mut(BLOCK_WORDS - MID_SKEW);
    for (t, m) in head.iter_mut().zip(&mid_a[MID_SKEW..]) {
        *t ^= m;
    }
    for (t, m) in tail.iter_mut().zip(&mid_b[..MID_SKEW]) {
        *t ^= m;
    }
}

/// Byte-at-a-time table CRC: short inputs and the fold's tail.
fn table_update(state: u16, bytes: &[u8]) -> u16 {
    bytes.iter().fold(state, |crc, &b| {
        (crc << 8) ^ TABLE[usize::from((crc >> 8) as u8 ^ b)]
    })
}

/// Bit-at-a-time CRC-16/CCITT-FALSE — the definitional form the fast
/// paths are derived from and the cross-check in tests; byte-for-byte
/// identical to [`crc16`].
#[must_use]
pub fn crc16_bitwise(bytes: &[u8]) -> u16 {
    bitwise_update(INIT, bytes)
}

/// The CRC shift register, one message bit at a time, from `state`.
fn bitwise_update(state: u16, bytes: &[u8]) -> u16 {
    let mut crc = state;
    for &b in bytes {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluefl_tensor::rng::splitmix64;
    use proptest::prelude::*;

    /// `len` pseudo-random bytes from `seed`.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = splitmix64(state);
                (state >> 56) as u8
            })
            .collect()
    }

    fn random_state(seed: u64) -> u16 {
        (splitmix64(seed) >> 48) as u16
    }

    #[test]
    fn known_check_value() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
        assert_eq!(crc16(b"A"), 0xB915);
    }

    #[test]
    fn table_matches_bitwise_on_short_buffers() {
        for len in 0..64 {
            let bytes = random_bytes(len as u64, len);
            assert_eq!(crc16(&bytes), crc16_bitwise(&bytes), "len={len}");
        }
    }

    /// The identity the fold rests on, checked on the definitional
    /// register: `x^(16·2^k) ≡ x^(12·2^k) + x^(5·2^k) + 1 (mod P)`. A lone
    /// one bit followed by `z` zero bits leaves the register at
    /// `x^(z+16) mod P`.
    #[test]
    fn fold_identity_holds_for_the_chosen_k() {
        let one_then_zero_bits = |zero_bits: usize| {
            assert_eq!(zero_bits % 8, 7, "the one bit ends its byte");
            let mut bytes = vec![0u8; 1 + zero_bits / 8];
            bytes[0] = 1;
            bitwise_update(0, &bytes)
        };
        // Seven zero bits ride along so every message is whole bytes.
        let shifted = |bits: usize| one_then_zero_bits(bits + 7);
        assert_eq!(
            shifted(16 << FOLD_K),
            shifted(12 << FOLD_K) ^ shifted(5 << FOLD_K) ^ shifted(0),
        );
        // ... and the word offsets the loops use are those exponents.
        assert_eq!(64 * BLOCK_WORDS, (16 - 12) << FOLD_K);
        assert_eq!(64 * (3 * BLOCK_WORDS - MID_SKEW), (16 - 5) << FOLD_K);
        assert_eq!(8 * SPAN_BYTES, 16 << FOLD_K);
    }

    #[test]
    fn fold_matches_bitwise_around_the_cutover() {
        let lo = FOLD_CUTOVER - 2 * BLOCK_BYTES;
        let hi = FOLD_CUTOVER + 3 * BLOCK_BYTES;
        let bytes = random_bytes(0xC0FFEE, hi);
        for len in lo..=hi {
            let state = random_state(len as u64);
            assert_eq!(
                crc16_update(state, &bytes[..len]),
                bitwise_update(state, &bytes[..len]),
                "len={len} state={state:#06x}"
            );
        }
    }

    #[test]
    fn fold_matches_bitwise_on_megabyte_buffers() {
        let bytes = random_bytes(7, (1 << 20) + 9);
        for extra in [0, 1, 7, 8, 9] {
            let len = (1 << 20) + extra;
            let state = random_state(extra as u64);
            assert_eq!(
                crc16_update(state, &bytes[..len]),
                bitwise_update(state, &bytes[..len]),
                "len={len}"
            );
        }
    }

    /// Constant and leading-zero buffers: the message contributes
    /// nothing (or nothing early), so the result is the state's doing —
    /// the step that xors it into the first two bytes.
    #[test]
    fn fold_carries_the_state_through_degenerate_buffers() {
        let len = 3 * FOLD_CUTOVER + 5;
        let mut leading_zeros = vec![0u8; len];
        leading_zeros[len - 300..].copy_from_slice(&random_bytes(3, 300));
        let buffers = [vec![0u8; len], vec![0xFFu8; len], leading_zeros];
        for (i, bytes) in buffers.iter().enumerate() {
            for seed in 0..8 {
                let state = [0, 1, 0x8000, INIT][seed % 4] ^ random_state((seed / 4) as u64);
                assert_eq!(
                    crc16_update(state, bytes),
                    bitwise_update(state, bytes),
                    "buffer {i} state={state:#06x}"
                );
            }
        }
    }

    /// Every split of an 8 KB buffer: short‖long, long‖short and
    /// long‖long all cross the cut-over on one side or both.
    #[test]
    fn update_is_concatenation_at_every_split() {
        let bytes = random_bytes(11, 8 << 10);
        assert!(bytes.len() >= 2 * FOLD_CUTOVER);
        let whole = crc16(&bytes);
        assert_eq!(whole, crc16_bitwise(&bytes));
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(whole, crc16_update(crc16(a), b), "split={split}");
        }
    }

    proptest! {
        #[test]
        fn prop_update_matches_bitwise(
            seed in any::<u64>(),
            len in 0usize..=(64 << 10),
            state in 0u16..=u16::MAX,
        ) {
            let bytes = random_bytes(seed, len);
            prop_assert_eq!(crc16_update(state, &bytes), bitwise_update(state, &bytes));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let bytes = b"the quick brown fox";
        let base = crc16(bytes);
        for i in 0..bytes.len() * 8 {
            let mut corrupted = bytes.to_vec();
            corrupted[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc16(&corrupted), base, "bit {i} flip undetected");
        }
    }
}
