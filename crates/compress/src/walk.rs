//! Client compress as one walk of the delta.
//!
//! What a client does to its trained delta before upload is, written out
//! step by step (and kept that way as the test reference): add the
//! carried-over residual ([`ErrorCompensator::apply`]), gather the values
//! under the shared mask and select the top-k outside it
//! ([`crate::mask_shift::client_split`]), store `Δ − sent` as the new
//! residual ([`ErrorCompensator::record`]) — each a pass over all `d`
//! positions, on a vector that has left the cache by the time the next
//! pass starts.
//!
//! [`ErrorCompensator::compress_split`] does the same arithmetic in the
//! one pass the top-k has to make anyway. Its [`LaneSource`] hands the
//! selection's listing pass one 64-position word at a time and, on the
//! way, per word: computes `d + s·h` and stores it (nothing to compute on
//! a first participation), appends the shared mask's lanes to the shared
//! values and subtracts them from the delta (`v − v`, the bits
//! `residual[i] -= v` leaves), and only then lets the lanes be keyed and
//! listed. The bracket sample reads compensated values on the fly; a
//! bracket that misses re-lists from the stored — already compensated —
//! delta, so compensation is applied exactly once. After the select the
//! unique values are gathered and subtracted in place, and the delta's
//! buffer is traded for the client's previous residual.

use crate::error_comp::{CompensationMode, ErrorCompensator, Residual};
use crate::mask_shift::ClientSplit;
use crate::stc::TernaryUpdate;
use gluefl_tensor::{
    top_k_abs_from_into, word_lanes, BitMask, LaneSource, MaskAligned, SparseUpdate, TopKScratch,
};

/// What one compress walk sends, and the storage its parts go into.
#[derive(Debug)]
pub struct SplitWalk<'a> {
    /// The mask both sides hold: its positions leave as the shared part.
    /// `None` sends no shared part (a regeneration round; STC).
    pub mask: Option<&'a BitMask>,
    /// Positions the top-k may not select (BatchNorm statistics), on top
    /// of the mask's.
    pub excluded: &'a BitMask,
    /// Size of the top-k outside `mask ∪ excluded`.
    pub unique_k: usize,
    /// Selection arena.
    pub topk: &'a mut TopKScratch,
    /// Recycled storage for the shared values (cleared by the walk).
    pub shared: Vec<f32>,
    /// Recycled storage for the unique part (cleared by the walk).
    pub unique: (Vec<u32>, Vec<f32>),
}

/// The delta as the listing pass's input; see the module docs.
struct DeltaWalk<'a> {
    delta: &'a mut [f32],
    /// The client's residual `h` and the scale `s` of `d + s·h`.
    carried: Option<(&'a [f32], f32)>,
    mask: Option<&'a [u64]>,
    excluded: &'a [u64],
    shared: &'a mut Vec<f32>,
    /// Whether what is sent is subtracted from the delta, which then
    /// becomes the residual (always, except in mode `None`).
    keep_residual: bool,
    /// Words `..walked` hold their final values.
    walked: usize,
}

impl DeltaWalk<'_> {
    /// Walks the words the selection never asked for.
    fn finish(&mut self) {
        let mut pad = [0.0f32; 64];
        for wi in self.walked..self.delta.len().div_ceil(64) {
            let _ = self.word(wi, &mut pad);
        }
    }
}

impl LaneSource for DeltaWalk<'_> {
    fn dim(&self) -> usize {
        self.delta.len()
    }

    #[inline]
    fn scope_word(&self, wi: usize) -> u64 {
        let positions = (self.delta.len() - wi * 64).min(64);
        let full = !0u64 >> (64 - positions);
        !(self.mask.map_or(0, |m| m[wi]) | self.excluded[wi]) & full
    }

    #[inline]
    fn peek(&self, i: usize) -> f32 {
        match self.carried {
            Some((h, s)) if i / 64 >= self.walked => self.delta[i] + s * h[i],
            _ => self.delta[i],
        }
    }

    #[inline]
    fn word<'a>(&'a mut self, wi: usize, pad: &'a mut [f32; 64]) -> &'a [f32; 64] {
        assert!(wi <= self.walked, "words are walked in ascending order");
        if wi == self.walked {
            self.walked += 1;
            let start = wi * 64;
            let end = (start + 64).min(self.delta.len());
            let lanes = &mut self.delta[start..end];
            if let Some((h, s)) = self.carried {
                for (d, h) in lanes.iter_mut().zip(&h[start..end]) {
                    *d += s * h;
                }
            }
            let mut m = self.mask.map_or(0, |m| m[wi]);
            if m != 0 {
                // Staged, so the shared vector grows once per word, not
                // once per lane.
                let mut staged = [0.0f32; 64];
                let mut n = 0;
                while m != 0 {
                    let lane = &mut lanes[m.trailing_zeros() as usize];
                    staged[n] = *lane;
                    n += 1;
                    if self.keep_residual {
                        *lane -= *lane;
                    }
                    m &= m - 1;
                }
                self.shared.extend_from_slice(&staged[..n]);
            }
        }
        word_lanes(self.delta, wi, pad)
    }
}

impl ErrorCompensator {
    /// The walk and the selection. On return the parts are gathered and
    /// `delta` holds the compensated delta minus the shared part — and
    /// minus the unique part too if `subtract_unique` (one loop gathers
    /// and subtracts: the selected positions are a second, scattered
    /// pass over a delta that has left the cache, so they are visited
    /// once). Nothing is banked yet.
    fn walk(
        &self,
        memory: &Residual,
        delta: &mut [f32],
        weight: f64,
        walk: SplitWalk<'_>,
        subtract_unique: bool,
    ) -> ClientSplit {
        let dim = self.dim();
        assert_eq!(delta.len(), dim, "delta dimension mismatch");
        assert_eq!(walk.excluded.len(), dim, "scope mask length mismatch");
        let SplitWalk {
            mask,
            excluded,
            unique_k,
            topk,
            mut shared,
            unique: (mut indices, mut values),
        } = walk;
        shared.clear();
        if let Some(mask) = mask {
            assert_eq!(mask.len(), dim, "mask/vector length mismatch");
            shared.reserve(mask.count_ones());
        }
        let keep_residual = self.mode() != CompensationMode::None;
        let mut source = DeltaWalk {
            delta,
            carried: self.carried(memory, weight),
            mask: mask.map(BitMask::as_words),
            excluded: excluded.as_words(),
            shared: &mut shared,
            keep_residual,
            walked: 0,
        };
        let selected = top_k_abs_from_into(&mut source, unique_k, topk);
        source.finish();
        indices.clear();
        indices.reserve(selected.len());
        values.clear();
        values.reserve(selected.len());
        for &i in selected {
            let lane = &mut delta[i];
            indices.push(i as u32);
            values.push(*lane);
            if subtract_unique && keep_residual {
                *lane -= *lane;
            }
        }
        ClientSplit {
            shared: MaskAligned::new(dim, shared),
            // Checks what `gather` checks: increasing and in range.
            unique: SparseUpdate::from_sorted_buffers(dim, indices, values),
        }
    }

    /// Compresses a client's `delta` into its two-part upload in one
    /// walk: the carried-over residual is added at the weight `ν` the
    /// client has this round (Equation 7; as [`apply`](Self::apply)), the
    /// values under `walk.mask` and the `walk.unique_k` largest outside
    /// `mask ∪ excluded` are sent (Algorithm 3 lines 16–17; as
    /// [`crate::mask_shift::client_split`]), and `Δ − sent` is the
    /// client's new residual (as [`record`](Self::record)) — bit for bit
    /// what that sequence computes, sign of zero included.
    ///
    /// `memory` is the client's, checked out with
    /// [`check_out`](Self::check_out) and returned with
    /// [`check_in`](Self::check_in): the walk reads and rewrites only
    /// it, so any number of clients compress concurrently through one
    /// shared compensator.
    ///
    /// The delta is **handed over**, never copied: its buffer becomes the
    /// residual, and `delta` is left holding the client's previous
    /// residual buffer — `dim` stale values, ready to be overwritten by
    /// the next round's delta — or an empty vector on the client's first
    /// participation. In [`CompensationMode::None`] nothing is stored and
    /// `delta` is untouched.
    ///
    /// # Panics
    /// Panics if `delta`, `walk.mask` or `walk.excluded` is not
    /// `dim`-long, or if a stored residual is to be re-scaled to a
    /// non-positive `weight`.
    pub fn compress_split(
        &self,
        memory: &mut Residual,
        delta: &mut Vec<f32>,
        weight: f64,
        walk: SplitWalk<'_>,
    ) -> ClientSplit {
        let split = self.walk(memory, delta, weight, walk, true);
        if self.mode() != CompensationMode::None {
            self.bank(memory, delta, weight);
        }
        split
    }

    /// [`compress_split`](Self::compress_split) for STC's ternary
    /// quantization: no shared part, and the top-k leaves as `sign·μ`, so
    /// that — not the exact values — is what the residual is short of,
    /// and quantization loss is carried into the next round too.
    ///
    /// # Panics
    /// As [`compress_split`](Self::compress_split), and if `walk` names a
    /// mask.
    pub fn compress_ternary(
        &self,
        memory: &mut Residual,
        delta: &mut Vec<f32>,
        weight: f64,
        walk: SplitWalk<'_>,
    ) -> TernaryUpdate {
        assert!(walk.mask.is_none(), "a ternary upload has no shared part");
        let ternary =
            TernaryUpdate::quantize(&self.walk(memory, delta, weight, walk, false).unique);
        if self.mode() != CompensationMode::None {
            for (&i, &positive) in ternary.indices.iter().zip(&ternary.signs) {
                delta[i as usize] -= if positive { ternary.mu } else { -ternary.mu };
            }
            self.bank(memory, delta, weight);
        }
        ternary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask_shift::client_split;

    fn walk<'a>(
        mask: Option<&'a BitMask>,
        excluded: &'a BitMask,
        unique_k: usize,
        topk: &'a mut TopKScratch,
    ) -> SplitWalk<'a> {
        SplitWalk {
            mask,
            excluded,
            unique_k,
            topk,
            shared: Vec::new(),
            unique: (Vec::new(), Vec::new()),
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A client turn's compress: check the memory out, walk, check it
    /// back in.
    fn compress_banked(
        ec: &mut ErrorCompensator,
        client: usize,
        delta: &mut Vec<f32>,
        weight: f64,
        walk: SplitWalk<'_>,
    ) -> ClientSplit {
        let mut memory = ec.check_out(client);
        let split = ec.compress_split(&mut memory, delta, weight, walk);
        ec.check_in(client, memory);
        split
    }

    /// The walk stores exactly the bits the dense reference stores — NaN
    /// and ∞ included — and trades buffers instead of copying: the
    /// delta's allocation becomes the residual, the previous residual's
    /// allocation comes back.
    #[test]
    fn the_walk_swaps_buffers_and_matches_the_dense_record() {
        let dim = 8;
        let deltas = [
            vec![1.0f32, f32::NAN, -2.5, f32::INFINITY, 0.0, -0.0, 3.0, 1e-40],
            vec![
                0.5f32,
                2.0,
                f32::NEG_INFINITY,
                1.0,
                f32::NAN,
                4.0,
                -3.0,
                0.25,
            ],
        ];
        let mask = BitMask::from_indices(dim, [1usize, 3]);
        let excluded = BitMask::from_indices(dim, [7usize]);
        let scope = mask.or(&excluded);
        let mut reference = ErrorCompensator::new(CompensationMode::Raw, dim);
        let mut walking = ErrorCompensator::new(CompensationMode::Raw, dim);
        let mut topk = TopKScratch::new();
        let mut returned = Vec::new();
        for (round, delta) in deltas.iter().enumerate() {
            let mut compensated = delta.clone();
            reference.apply(4, &mut compensated, 2.0);
            let want = ClientSplit {
                shared: MaskAligned::gather(&compensated, &mask),
                unique: client_split(&compensated, &scope, 1).unique,
            };
            let mut sent = want.shared.to_dense(&mask);
            want.unique.apply(&mut sent);
            reference.record(4, &compensated, &sent, 2.0);

            let mut handed = delta.clone();
            let delta_ptr = handed.as_ptr();
            let previous_ptr = walking.stored(4).map(|(h, _)| h.as_ptr());
            let got = compress_banked(
                &mut walking,
                4,
                &mut handed,
                2.0,
                walk(Some(&mask), &excluded, 1, &mut topk),
            );
            assert_eq!(bits(got.shared.values()), bits(want.shared.values()));
            assert_eq!(got.unique.indices(), want.unique.indices());
            assert_eq!(bits(got.unique.values()), bits(want.unique.values()));
            let (stored, weight) = walking.stored(4).expect("banked");
            assert_eq!(stored.as_ptr(), delta_ptr, "round {round}: copied");
            assert_eq!(weight, 2.0);
            match previous_ptr {
                None => assert_eq!(handed.capacity(), 0, "first round returns no buffer"),
                Some(ptr) => {
                    assert_eq!(handed.as_ptr(), ptr, "previous residual not returned");
                    assert_eq!(handed.len(), dim);
                }
            }
            assert_eq!(
                bits(stored),
                bits(reference.stored(4).expect("recorded").0),
                "round {round}"
            );
            returned = handed;
        }
        assert_eq!(returned.len(), dim);
        assert_eq!(walking.tracked_clients(), 1);
        // Compensation off: nothing is stored and the delta stays put.
        let mut off = ErrorCompensator::new(CompensationMode::None, dim);
        let mut delta = deltas[0].clone();
        let ptr = delta.as_ptr();
        let split = compress_banked(
            &mut off,
            4,
            &mut delta,
            1.0,
            walk(Some(&mask), &excluded, 1, &mut topk),
        );
        assert_eq!((delta.as_ptr(), delta.len()), (ptr, dim));
        assert_eq!(bits(&delta), bits(&deltas[0]));
        assert_eq!(split.shared.nnz(), 2);
        assert_eq!(off.tracked_clients(), 0);
    }

    /// `k == 0` and `k ≥` the scope never start a listing pass; the walk
    /// still has to visit every word.
    #[test]
    fn the_walk_completes_when_the_selection_lists_nothing() {
        let dim = 130;
        let mask = BitMask::from_indices(dim, (0..dim).step_by(3));
        let excluded = BitMask::zeros(dim);
        let delta: Vec<f32> = (0..dim).map(|i| i as f32 - 60.5).collect();
        let mut topk = TopKScratch::new();
        for k in [0, dim] {
            let mut ec = ErrorCompensator::new(CompensationMode::Rescaled, dim);
            let mut handed = delta.clone();
            let got = compress_banked(
                &mut ec,
                0,
                &mut handed,
                1.0,
                walk(Some(&mask), &excluded, k, &mut topk),
            );
            assert_eq!(got, client_split(&delta, &mask, k), "k={k}");
            let sent = dim.div_ceil(3) + k.min(dim - dim.div_ceil(3));
            let (stored, _) = ec.stored(0).expect("banked");
            assert_eq!(stored.iter().filter(|&&h| h == 0.0).count(), sent, "k={k}");
        }
    }

    #[test]
    fn ternary_residual_is_short_of_sign_mu() {
        let dim = 6;
        let excluded = BitMask::zeros(dim);
        let mut topk = TopKScratch::new();
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, dim);
        let mut delta = vec![4.0f32, -3.0, 0.5, 0.0, 2.0, -1.0];
        let mut memory = ec.check_out(0);
        let t = ec.compress_ternary(
            &mut memory,
            &mut delta,
            1.0,
            walk(None, &excluded, 4, &mut topk),
        );
        ec.check_in(0, memory);
        assert_eq!(t.indices, [0, 1, 4, 5]);
        assert_eq!(t.mu, 2.5);
        let (stored, _) = ec.stored(0).expect("banked");
        assert_eq!(stored, [1.5, -0.5, 0.5, 0.0, -0.5, 1.5]);
    }

    /// Compressing on a checked-out memory is invisible until check-in:
    /// over every mode, a first participation and returning ones at
    /// changing weights, the bank reports nothing for the client while
    /// its memory is out, and the check-out → walk → check-in sequence
    /// sends, hands back and stores the bits, at the weight, that the
    /// reference sequence (`apply`, split, `record`) leaves in a bank.
    #[test]
    fn a_checked_out_walk_matches_the_banked_one() {
        let dim = 150;
        let mask = BitMask::from_indices(dim, (0..dim).step_by(7));
        let excluded = BitMask::from_indices(dim, [3usize, 80]);
        let scope = mask.or(&excluded);
        let mut topk = TopKScratch::new();
        for mode in [
            CompensationMode::None,
            CompensationMode::Raw,
            CompensationMode::Rescaled,
        ] {
            let mut banked = ErrorCompensator::new(mode, dim);
            let mut out = ErrorCompensator::new(mode, dim);
            for (round, weight) in [2.0, 0.5, 1.25].into_iter().enumerate() {
                let delta: Vec<f32> = (0..dim)
                    .map(|i| ((i * (round + 3)) as f32 * 0.37).sin())
                    .collect();
                let previous = banked.stored(9).map(|(h, _)| h.to_vec());
                let mut compensated = delta.clone();
                banked.apply(9, &mut compensated, weight);
                let want = ClientSplit {
                    shared: MaskAligned::gather(&compensated, &mask),
                    unique: client_split(&compensated, &scope, 6).unique,
                };
                let mut sent = want.shared.to_dense(&mask);
                want.unique.apply(&mut sent);
                banked.record(9, &compensated, &sent, weight);
                let want_handed = match mode {
                    CompensationMode::None => delta.clone(),
                    _ => previous.unwrap_or_default(),
                };

                let mut memory = out.check_out(9);
                assert_eq!(out.stored(9), None, "{mode:?}: visible while out");
                let mut handed = delta.clone();
                let got = out.compress_split(
                    &mut memory,
                    &mut handed,
                    weight,
                    walk(Some(&mask), &excluded, 6, &mut topk),
                );
                out.check_in(9, memory);
                let what = format!("{mode:?} round {round}");
                assert_eq!(got, want, "{what}");
                assert_eq!(bits(&handed), bits(&want_handed), "{what}");
                let stored = |ec: &ErrorCompensator| ec.stored(9).map(|(h, w)| (bits(h), w));
                assert_eq!(stored(&out), stored(&banked), "{what}");
                assert_eq!(out.tracked_clients(), banked.tracked_clients(), "{what}");
            }
        }
    }

    /// Checking in nothing stores nothing, and clears the check-out.
    #[test]
    fn an_empty_check_in_leaves_the_bank_as_it_was() {
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, 2);
        ec.record(1, &[1.0, 2.0], &[0.0, 0.0], 1.0);
        let memory = ec.check_out(4);
        assert!(memory.is_empty());
        ec.check_in(4, memory);
        assert_eq!(ec.tracked_clients(), 1);
        assert_eq!(ec.stored(4), None);
        let again = ec.check_out(4);
        ec.check_in(4, again);
    }

    #[test]
    #[should_panic(expected = "already checked out")]
    fn a_second_check_out_panics() {
        let mut ec = ErrorCompensator::new(CompensationMode::Rescaled, 2);
        let _first = ec.check_out(3);
        let _second = ec.check_out(3);
    }

    #[test]
    #[should_panic(expected = "delta dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, 2);
        let excluded = BitMask::zeros(2);
        let mut topk = TopKScratch::new();
        let _ = compress_banked(
            &mut ec,
            0,
            &mut vec![0.0f32; 3],
            1.0,
            walk(None, &excluded, 1, &mut topk),
        );
    }
}
