//! GlueFL's fold: mask shifting with shared-mask regeneration
//! (Algorithm 3); its sticky sampling is [`super::Sampler::Sticky`].

use super::Upload;
use crate::aggregate::{packed_rank, scatter_add_packed};
use crate::config::GlueFlParams;
use crate::scratch::ScratchPool;
use gluefl_compress::mask_shift::shift_mask_packed_into;
use gluefl_compress::stc::keep_count;
use gluefl_tensor::{top_k_abs_packed_into, vecops, BitMask, MaskedUpdate, TopKScope};
use rand::rngs::StdRng;

/// The server fold of the paper's framework, [`super::Strategy::GlueFl`]:
/// mask shifting (§3.2) with shared-mask regeneration (§3.3). Its
/// sampling half, sticky sampling (§3.1), is [`super::Sampler::Sticky`];
/// the client half — the split along `M_t`, the unique top-k and the
/// re-scaled error compensation — is [`crate::ClientCompressor`].
#[derive(Debug)]
pub struct GlueFlFold {
    params: GlueFlParams,
    /// Round size `K`: the most uploads one round folds.
    max_kept: usize,
    /// Current shared mask `M_t` (⊆ trainable positions): broadcast with
    /// each sync (Algorithm 3 line 7), and the alignment of every
    /// shared-part upload until [`finish`](Self::finish) shifts it.
    pub(super) shared_mask: BitMask,
    /// Cached `|M_t|` (the length of every mask-aligned shared upload).
    shared_nnz: usize,
    /// Positions that may never be masked/selected (BN statistics).
    stats_excluded: BitMask,
    /// Cached `¬stats`: positions eligible for the shared mask.
    eligible: BitMask,
    /// Number of trainable positions (base for `q` ratios).
    trainable: usize,
    dim: usize,
    /// The round being folded, set by [`begin`](Self::begin).
    round: u32,
    /// The round's packed shared sum, aligned to `M_t`; empty between
    /// rounds.
    shr_acc: Vec<f32>,
    /// The round's deferred unique parts, a flat `(position, weighted
    /// value)` stream; empty between rounds. The union support and the
    /// packed unique sum are built once, at [`finish`](Self::finish)
    /// ([`crate::aggregate::scatter_add_packed`]), so no `dim`-length
    /// buffer is ever staged.
    stream_idx: Vec<u32>,
    stream_vals: Vec<f32>,
}

impl GlueFlFold {
    /// Creates the fold for rounds of `round_size` kept uploads. The
    /// initial shared mask is a random `q_shr`-fraction of trainable
    /// positions, drawn from `rng` (before the first round there is no
    /// update signal to select by).
    ///
    /// # Panics
    /// Panics if `q_shr > q`.
    pub(super) fn new(
        params: GlueFlParams,
        round_size: usize,
        trainable: usize,
        dim: usize,
        stats_excluded: BitMask,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            params.q_shr <= params.q,
            "q_shr {} must not exceed q {}",
            params.q_shr,
            params.q
        );
        // Random initial mask over trainable positions (word-level
        // complement walk instead of d per-bit tests).
        let k_mask = keep_count(trainable, params.q_shr);
        let mut picked: Vec<usize> = stats_excluded.iter_zeros().collect();
        use rand::seq::SliceRandom;
        let (sel, _) = picked.partial_shuffle(rng, k_mask);
        let shared_mask = BitMask::from_indices(dim, sel.iter().copied());
        let shared_nnz = shared_mask.count_ones();
        let eligible = stats_excluded.not();
        Self {
            params,
            max_kept: round_size,
            shared_mask,
            shared_nnz,
            stats_excluded,
            eligible,
            trainable,
            dim,
            round: 0,
            shr_acc: Vec::new(),
            stream_idx: Vec::new(),
            stream_vals: Vec::new(),
        }
    }

    /// Opens the round: the packed shared sum (aligned to `M_t`) and the
    /// deferred unique stream. The stream's final size is known — at
    /// most `K` uploads of `unique_keep` entries each — and five times
    /// larger on a regeneration round than the pooled buffers of the
    /// shift rounds before it: reserve it here, not by doubling inside
    /// the fold.
    pub(super) fn begin(&mut self, round: u32, scratch: &mut ScratchPool) {
        self.round = round;
        (self.stream_idx, self.stream_vals) = scratch.take_sparse();
        let stream_len = self.max_kept * self.params.unique_keep(self.trainable, round);
        self.stream_idx.reserve(stream_len);
        self.stream_vals.reserve(stream_len);
        self.shr_acc = scratch.take_zeroed(self.shared_nnz);
    }

    /// Adds `weight ×` a split upload: its shared part into the packed
    /// shared sum (except on a regeneration round, which drops it), its
    /// unique part onto the deferred stream.
    pub(super) fn upload(&mut self, weight: f32, upload: &Upload) {
        let Upload::MaskSplit(split) = upload else {
            panic!("GlueFL aggregate received non-split upload {upload:?}")
        };
        if !self.params.is_regen_round(self.round) {
            assert_eq!(
                split.shared.nnz(),
                self.shared_nnz,
                "shared part not aligned to the current mask"
            );
            vecops::axpy(&mut self.shr_acc, weight, split.shared.values());
        }
        // The finish scatter replays these adds in exactly this order,
        // so the packed sum is bit-identical to the dense per-upload
        // `acc[i] += w·v` fold.
        self.stream_idx.extend_from_slice(split.unique.indices());
        self.stream_vals
            .extend(split.unique.values().iter().map(|&v| weight * v));
    }

    /// Completes the round entirely in packed space — `O(q·d)` values
    /// touched, no dense `d`-length staging — and returns every round
    /// buffer to `scratch`:
    ///
    /// 1. the deferred unique stream becomes a packed unique aggregate
    ///    over its union support ([`scatter_add_packed`]);
    /// 2. Δ̃_uni = top `q−q_shr` of the packed unique aggregate (line 23),
    ///    selected by the packed top-k (positions off `uni_support` are
    ///    exact zeros, so the selection equals the dense kernel's);
    /// 3. Δ̃ = Δ̃_shr + Δ̃_uni (line 24) emitted directly as
    ///    `(mask, values)`: the shared and unique supports are disjoint by
    ///    construction (clients pick unique coordinates outside
    ///    `M_t ∪ stats`), so each combined value is a plain copy — and a
    ///    zero-fill-up selection (top-k ran out of nonzeros) lands as an
    ///    exact `0.0`, just as the dense staging held. Copying is bitwise
    ///    what the dense path computed: a sum started at `+0.0` is never
    ///    `-0.0`, so the old `0.0 + x·1.0` add reproduced `x` exactly;
    /// 4. the shared mask shifts to the top `q_shr` of the packed combined
    ///    update (line 26), regeneration rounds re-seeding it from the
    ///    unique part alone (§3.3).
    pub(super) fn finish(&mut self, scratch: &mut ScratchPool) -> MaskedUpdate {
        let shr_vals = std::mem::take(&mut self.shr_acc);
        let stream_idx = std::mem::take(&mut self.stream_idx);
        let stream_vals = std::mem::take(&mut self.stream_vals);
        let mut uni_support = scratch.take_mask(self.dim);
        let (mut uni_offsets, mut uni_vals) = scratch.take_sparse();
        scatter_add_packed(
            &stream_idx,
            &stream_vals,
            self.dim,
            &mut uni_support,
            &mut uni_offsets,
            &mut uni_vals,
        );

        let regen = self.params.is_regen_round(self.round);
        let unique_k = self.params.unique_keep(self.trainable, self.round);
        let mut mask = scratch.take_mask(self.dim);
        if !regen {
            mask.copy_from(&self.shared_mask);
        }
        {
            let idx = top_k_abs_packed_into(
                &uni_support,
                &uni_vals,
                unique_k,
                TopKScope::Outside(&self.stats_excluded),
                &mut scratch.topk,
            );
            for &i in idx {
                mask.set(i, true);
            }
        }
        let mut values = scratch.take_cleared();
        let uwords = uni_support.as_words();
        let mut sp = 0usize;
        mask.for_each_one(|i| {
            if !regen && self.shared_mask.get(i) {
                values.push(shr_vals[sp]);
                sp += 1;
            } else if uni_support.get(i) {
                values.push(uni_vals[packed_rank(uwords, &uni_offsets, i)]);
            } else {
                values.push(0.0);
            }
        });

        let mut next_mask = scratch.take_mask(self.dim);
        shift_mask_packed_into(
            &mask,
            &values,
            self.params.q_shr,
            Some(&self.eligible),
            &mut scratch.topk,
            &mut next_mask,
        );
        self.shared_nnz = next_mask.count_ones();
        scratch.put_mask(std::mem::replace(&mut self.shared_mask, next_mask));
        scratch.put(shr_vals);
        scratch.put_mask(uni_support);
        scratch.put_sparse(uni_offsets, uni_vals);
        scratch.put_sparse(stream_idx, stream_vals);
        MaskedUpdate::new(mask, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{Group, Sampler, Strategy};
    use crate::stream::fold_through_gate;
    use crate::StrategyConfig;
    use gluefl_compress::mask_shift::client_split;
    use gluefl_compress::CompensationMode;
    use gluefl_sampling::ClientId;
    use rand::SeedableRng;

    fn params() -> GlueFlParams {
        GlueFlParams {
            q: 0.3,
            q_shr: 0.2,
            sticky_group: 8,
            sticky_draw: 3,
            regen_interval: Some(5),
            compensation: CompensationMode::Rescaled,
            equal_weights: false,
        }
    }

    /// GlueFL's sampler and fold over twenty clients (`p_i = 0.05`) and
    /// a `dim`-position model, drawn from one stream as the engine draws
    /// them: the sticky group first, then the initial shared mask.
    fn halves_with(p: GlueFlParams, dim: usize, seed: u64) -> (Sampler, Strategy) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = StrategyConfig::GlueFl(p.clone());
        let sampler = Sampler::for_test(cfg, &[0.05; 20], 4, 1.0, &mut rng);
        let fold = GlueFlFold::new(p, 4, dim, dim, BitMask::zeros(dim), &mut rng);
        (sampler, Strategy::GlueFl(fold))
    }

    fn strategy_with(p: GlueFlParams, dim: usize, seed: u64) -> Strategy {
        halves_with(p, dim, seed).1
    }

    fn strategy(seed: u64) -> Strategy {
        strategy_with(params(), 20, seed)
    }

    fn sampler(seed: u64) -> Sampler {
        halves_with(params(), 20, seed).0
    }

    /// A sticky client's weight, `(S/C)·p_i`.
    fn sticky_weight(id: ClientId) -> f32 {
        sampler(0).weight(id, Group::Sticky) as f32
    }

    /// What an honest client uploads for `delta` in a mask-shift round.
    fn split_upload(s: &Strategy, round: u32, delta: &[f32]) -> Upload<'static> {
        let Strategy::GlueFl(fold) = s else {
            unreachable!("a GlueFL fold")
        };
        let unique_k = fold.params.unique_keep(fold.trainable, round);
        Upload::MaskSplit(client_split(delta, &fold.shared_mask, unique_k))
    }

    #[test]
    fn initial_mask_has_qshr_density() {
        let s = strategy(0);
        assert_eq!(s.round_mask().unwrap().count_ones(), 4); // 20% of 20
    }

    #[test]
    fn plan_draws_sticky_and_fresh() {
        let mut s = sampler(1);
        let mut rng = StdRng::seed_from_u64(2);
        let plan = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
        assert_eq!(plan.sticky_invites.len(), 3);
        assert_eq!(plan.fresh_invites.len(), 1);
        assert_eq!(plan.keep_sticky, 3);
        assert_eq!(plan.keep_fresh, 1);
        assert!(plan
            .sticky_invites
            .iter()
            .all(|&c| s.sticky().unwrap().is_sticky(c)));
    }

    #[test]
    fn weights_are_inverse_propensity() {
        let s = sampler(3);
        // ν_s = (S/C)·p = (8/3)·0.05; ν_r = ((N−S)/(K−C))·p = 12·0.05.
        assert!((s.weight(0, Group::Sticky) - 8.0 / 3.0 * 0.05).abs() < 1e-12);
        assert!((s.weight(0, Group::Fresh) - 12.0 * 0.05).abs() < 1e-12);
    }

    #[test]
    fn equal_weights_variant() {
        let mut p = params();
        p.equal_weights = true;
        assert_eq!(StrategyConfig::GlueFl(p.clone()).name(), "gluefl-equal");
        let (s, _) = halves_with(p, 20, 4);
        assert_eq!(s.weight(0, Group::Sticky), 0.25);
        assert_eq!(s.weight(0, Group::Fresh), 0.25);
    }

    #[test]
    fn regeneration_rounds_follow_the_interval() {
        let p = params();
        assert!(p.is_regen_round(5));
        assert!(!p.is_regen_round(4));
        assert!(!p.is_regen_round(0)); // round 0 never regenerates
        assert_eq!(p.unique_keep(20, 4), 2); // q − q_shr = 10% of 20
        assert_eq!(p.unique_keep(20, 5), 6); // the full q = 30%
    }

    #[test]
    fn fold_updates_mask_to_top_qshr_of_combined() {
        let mut s = strategy(7);
        let delta: Vec<f32> = (0..20).map(|i| if i < 6 { 10.0 } else { 0.01 }).collect();
        let mut pool = ScratchPool::new();
        let up = split_upload(&s, 1, &delta);
        let agg = fold_through_gate(&mut s, 1, &[(1, sticky_weight(1), up)], &mut pool);
        assert_eq!(agg.dim(), 20);
        // New mask has q_shr density.
        assert_eq!(s.round_mask().unwrap().count_ones(), 4);
    }

    #[test]
    fn consecutive_update_overlap_at_least_qshr() {
        let mut pool = ScratchPool::new();
        // The support of round t+1's combined update always contains
        // M_{t+1}, which was chosen from round t's combined update —
        // so consecutive supports overlap in ≥ q_shr·d positions as long
        // as clients keep sending the shared part. (Regeneration rounds
        // intentionally break this, so disable them here.)
        let mut p = params();
        p.regen_interval = None;
        let mut s = strategy_with(p, 20, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut prev_support: Option<BitMask> = None;
        for round in 1..6u32 {
            // Three sticky clients with pseudo-random deltas.
            let kept: Vec<(ClientId, f32, Upload)> = (0..3)
                .map(|id| {
                    use rand::Rng;
                    let delta: Vec<f32> = (0..20).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    (id, sticky_weight(id), split_upload(&s, round, &delta))
                })
                .collect();
            let agg = fold_through_gate(&mut s, round, &kept, &mut pool);
            let mut nonzero = Vec::new();
            agg.for_each_nonzero(|i, _| nonzero.push(i));
            let support = BitMask::from_indices(20, nonzero);
            if let Some(prev) = &prev_support {
                let overlap = prev.overlap(&support);
                assert!(
                    overlap >= 4,
                    "round {round}: overlap {overlap} below q_shr·d = 4"
                );
            }
            prev_support = Some(support);
        }
    }

    /// The fold is O(q·d) in memory as well as time: at d = 100 000 with
    /// sparse clients, no pooled staging buffer ever reaches d/2 floats —
    /// checked against a pool that has never seen a dense buffer.
    #[test]
    fn fold_stages_no_dense_buffer() {
        let dim = 100_000;
        let mut p = params();
        p.q = 0.01;
        p.q_shr = 0.005;
        let mut s = strategy_with(p, dim, 21);
        let kept: Vec<(ClientId, f32, Upload)> = (0..3)
            .map(|id| {
                let delta: Vec<f32> = (0..dim)
                    .map(|i| ((i * 7 + id * 13) % 101) as f32 / 50.0 - 1.0)
                    .collect();
                (id, sticky_weight(id), split_upload(&s, 1, &delta))
            })
            .collect();
        let mut pool = ScratchPool::new();
        let update = fold_through_gate(&mut s, 1, &kept, &mut pool);
        assert!(update.mask().count_ones() > 0);
        assert!(
            pool.max_idle_value_capacity() < dim / 2,
            "fold staged a near-dense buffer: {} floats",
            pool.max_idle_value_capacity()
        );
    }

    #[test]
    fn finish_round_rebalances_sticky_group() {
        let mut s = sampler(11);
        let mut rng = StdRng::seed_from_u64(12);
        let plan = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
        s.rebalance(&mut rng, &plan.sticky_invites, &plan.fresh_invites);
        let group = s.sticky().expect("GlueFL samples stickily");
        assert_eq!(group.group_size(), 8);
        assert!(plan.fresh_invites.iter().all(|&c| group.is_sticky(c)));
    }

    #[test]
    #[should_panic(expected = "q_shr")]
    fn rejects_qshr_above_q() {
        let mut p = params();
        p.q_shr = 0.5;
        let _ = strategy_with(p, 20, 0);
    }
}
