//! STC: top-`q` masking on clients and server (Sattler et al. 2019).

use crate::scratch::ScratchPool;
use gluefl_compress::stc::keep_count;
use gluefl_tensor::{top_k_abs_masked_into, BitMask, MaskedUpdate, TopKScope};

/// The server fold of the masking-only STC of Algorithm 1,
/// [`super::Strategy::Stc`]: clients upload `top_q(Δ_i)` with classic
/// error feedback ([`crate::ClientCompressor`]), or its ternary-quantized
/// form under STC-quant (footnote 1); the server folds them densely, as
/// FedAvg does, at `(N/K)p_i` weights and re-masks the aggregate with
/// another `top_q`, so only `q·d` positions change per round.
#[derive(Debug)]
pub struct StcFold {
    q: f64,
    /// Whether clients upload ternary values (STC-quant) rather than
    /// plain sparse ones: the one upload the fold takes.
    pub(super) quantize: bool,
    /// Number of trainable positions (ratio base).
    trainable: usize,
    pub(super) dim: usize,
    /// Positions the server mask must not select (BN statistics).
    stats_excluded: BitMask,
    /// The round's `dim`-length partial sum; empty between rounds.
    pub(super) acc: Vec<f32>,
}

impl StcFold {
    /// The fold for mask ratio `q` over `trainable` of `dim` positions,
    /// taking ternary uploads if `quantize`. `stats_excluded` marks
    /// positions that may never enter a mask (BN statistics).
    pub(super) fn new(
        q: f64,
        quantize: bool,
        trainable: usize,
        dim: usize,
        stats_excluded: BitMask,
    ) -> Self {
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
        Self {
            q,
            quantize,
            trainable,
            dim,
            stats_excluded,
            acc: Vec::new(),
        }
    }

    /// Server-side masking (Algorithm 1 line 17): the update *is* the
    /// top `q` of the aggregate, emitted directly as mask + packed
    /// values.
    pub(super) fn finish(&mut self, scratch: &mut ScratchPool) -> MaskedUpdate {
        let acc = std::mem::take(&mut self.acc);
        let mut mask = scratch.take_mask(self.dim);
        let mut values = scratch.take_cleared();
        let k = keep_count(self.trainable, self.q);
        let idx = top_k_abs_masked_into(
            &acc,
            k,
            TopKScope::Outside(&self.stats_excluded),
            &mut scratch.topk,
        );
        // `idx` is strictly increasing, so pushes land in mask-bit order.
        for &i in idx {
            mask.set(i, true);
            values.push(acc[i]);
        }
        scratch.put(acc);
        MaskedUpdate::new(mask, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{Group, Sampler, Strategy, Upload};
    use crate::stream::fold_through_gate;
    use crate::StrategyConfig;
    use gluefl_sampling::ClientId;
    use gluefl_tensor::SparseUpdate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strategy(q: f64) -> Strategy {
        Strategy::Stc(StcFold::new(q, false, 8, 8, BitMask::zeros(8)))
    }

    /// STC's sampler: uniform over ten clients, `(N/K)·p_i = 1/3` each.
    fn sampler() -> Sampler {
        let mut rng = StdRng::seed_from_u64(0);
        Sampler::for_test(StrategyConfig::Stc { q: 0.2 }, &[0.1; 10], 3, 1.0, &mut rng)
    }

    fn weight(id: ClientId) -> f32 {
        sampler().weight(id, Group::Fresh) as f32
    }

    #[test]
    fn aggregate_is_server_masked() {
        let mut s = strategy(0.25);
        // Two clients agree on positions 0, 7; noise elsewhere.
        let mk = |vals: Vec<(u32, f32)>| Upload::Sparse(SparseUpdate::from_pairs(8, vals));
        let kept = vec![
            (0usize, weight(0), mk(vec![(0, 5.0), (6, 0.1)])),
            (1usize, weight(1), mk(vec![(0, 5.0), (7, 6.0)])),
        ];
        let mut pool = ScratchPool::new();
        let agg = fold_through_gate(&mut s, 0, &kept, &mut pool);
        // top 25% of 8 = 2 positions survive: 0 (sum 10·w) and 7 (6·w).
        let mut nonzero = Vec::new();
        agg.for_each_nonzero(|i, _| nonzero.push(i));
        assert_eq!(nonzero, vec![0, 7]);
    }

    #[test]
    fn changed_positions_bounded_by_q() {
        let mut s = strategy(0.25);
        let kept: Vec<(ClientId, f32, Upload)> = (0..3)
            .map(|i| {
                let vals: Vec<(u32, f32)> = (0..8)
                    .map(|j| (j as u32, (i + 1) as f32 * (j as f32 - 3.5)))
                    .collect();
                (
                    i,
                    weight(i),
                    Upload::Sparse(SparseUpdate::from_pairs(8, vals)),
                )
            })
            .collect();
        let mut pool = ScratchPool::new();
        let agg = fold_through_gate(&mut s, 0, &kept, &mut pool);
        assert!(agg.nnz() <= 2, "mask covers {} > q·d = 2", agg.nnz());
        let mut changed = 0usize;
        agg.for_each_nonzero(|_, _| changed += 1);
        assert!(changed <= 2, "changed {changed} exceeds q·d = 2");
    }

    #[test]
    fn plan_is_uniform_without_stickiness() {
        let mut s = sampler();
        let mut rng = StdRng::seed_from_u64(1);
        let plan = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
        assert!(plan.sticky_invites.is_empty());
        assert_eq!(plan.fresh_invites.len(), 3);
    }
}
