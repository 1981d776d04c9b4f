//! STC: top-`q` masking on clients and server (Sattler et al. 2019).

use super::{FoldAcc, Group, RoundPlan, Strategy, Upload};
use crate::scratch::ScratchPool;
use gluefl_compress::stc::keep_count;
use gluefl_sampling::{ClientId, OnlineQuery, UniformSampler};
use gluefl_tensor::{top_k_abs_masked_into, BitMask, MaskedUpdate, TopKScope};
use rand::rngs::StdRng;

/// The server half of the masking-only STC of Algorithm 1: clients upload
/// `top_q(Δ_i)` with classic error feedback
/// ([`crate::ClientCompressor`]), the server aggregates with `(N/K)p_i`
/// weights and re-masks the aggregate with another `top_q`, so only
/// `q·d` positions change per round.
#[derive(Debug)]
pub struct StcStrategy {
    sampler: UniformSampler,
    k: usize,
    oc: f64,
    weights: Vec<f64>,
    q: f64,
    /// Number of trainable positions (ratio base).
    trainable: usize,
    dim: usize,
    /// Positions strategies must not select (BN statistics).
    stats_excluded: BitMask,
    /// Clients ternary-quantize their uploads (footnote 1).
    quantize: bool,
}

impl StcStrategy {
    /// Creates the strategy. `stats_excluded` marks positions that may
    /// never enter a mask (BN statistics).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        n: usize,
        k: usize,
        oc: f64,
        weights: Vec<f64>,
        q: f64,
        trainable: usize,
        dim: usize,
        stats_excluded: BitMask,
    ) -> Self {
        assert_eq!(weights.len(), n, "weights length must equal population");
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
        Self {
            sampler: UniformSampler::new(n),
            k,
            oc,
            weights,
            q,
            trainable,
            dim,
            stats_excluded,
            quantize: false,
        }
    }

    /// Marks the run as ternary-quantized: clients send every kept value
    /// as `sign·μ` (one bit each plus one shared magnitude), and the fold
    /// consumes [`Upload::Ternary`].
    #[must_use]
    pub fn with_quantization(mut self) -> Self {
        self.quantize = true;
        self
    }

    /// The configured mask ratio `q`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl Strategy for StcStrategy {
    fn name(&self) -> String {
        if self.quantize {
            "stc-quant".into()
        } else {
            "stc".into()
        }
    }

    fn plan_round(
        &mut self,
        _round: u32,
        rng: &mut StdRng,
        online: &mut dyn OnlineQuery,
    ) -> RoundPlan {
        let invites = (self.k as f64 * self.oc).round() as usize;
        RoundPlan {
            sticky_invites: Vec::new(),
            fresh_invites: self.sampler.draw(rng, invites, online),
            keep_sticky: 0,
            keep_fresh: self.k,
        }
    }

    fn client_weight(&self, id: ClientId, _group: Group) -> f64 {
        self.sampler.population() as f64 / self.k as f64 * self.weights[id]
    }

    fn fold_begin(&mut self, _round: u32, scratch: &mut ScratchPool) -> FoldAcc {
        FoldAcc {
            dense: Some(scratch.take_zeroed(self.dim)),
            packed: None,
            indices: None,
            count: 0,
        }
    }

    fn fold_upload(
        &mut self,
        _round: u32,
        acc: &mut FoldAcc,
        id: ClientId,
        group: Group,
        upload: &Upload,
        _scratch: &mut ScratchPool,
    ) {
        let w = self.client_weight(id, group) as f32;
        let dense = acc
            .dense
            .as_mut()
            .expect("fold_begin allocates the accumulator");
        upload.add_weighted_into(dense, w);
        acc.count += 1;
    }

    fn fold_finish(
        &mut self,
        _round: u32,
        acc: FoldAcc,
        scratch: &mut ScratchPool,
    ) -> MaskedUpdate {
        let acc = acc.dense.expect("fold_begin allocates the accumulator");
        // Server-side masking (Algorithm 1 line 17): the update *is* the
        // top q of the aggregate, emitted directly as mask + packed
        // values. `idx` is strictly increasing, so pushes land in
        // mask-bit order.
        let mut mask = scratch.take_mask(self.dim);
        let mut values = scratch.take_cleared();
        let k = keep_count(self.trainable, self.q);
        let idx = top_k_abs_masked_into(
            &acc,
            k,
            TopKScope::Outside(&self.stats_excluded),
            &mut scratch.topk,
        );
        for &i in idx {
            mask.set(i, true);
            values.push(acc[i]);
        }
        scratch.put(acc);
        MaskedUpdate::new(mask, values)
    }

    fn finish_round(&mut self, _round: u32, _rng: &mut StdRng, _s: &[ClientId], _f: &[ClientId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::fold_in_id_order;
    use gluefl_tensor::SparseUpdate;
    use rand::SeedableRng;

    fn strategy(q: f64) -> StcStrategy {
        StcStrategy::new(10, 3, 1.0, vec![0.1; 10], q, 8, 8, BitMask::zeros(8))
    }

    #[test]
    fn aggregate_is_server_masked() {
        let mut s = strategy(0.25);
        // Two clients agree on positions 0, 7; noise elsewhere.
        let mk = |vals: Vec<(u32, f32)>| Upload::Sparse(SparseUpdate::from_pairs(8, vals));
        let kept = vec![
            (0usize, Group::Fresh, mk(vec![(0, 5.0), (6, 0.1)])),
            (1usize, Group::Fresh, mk(vec![(0, 5.0), (7, 6.0)])),
        ];
        let mut pool = ScratchPool::new();
        let agg = fold_in_id_order(&mut s, 0, &kept, &mut pool);
        // top 25% of 8 = 2 positions survive: 0 (sum 10·w) and 7 (6·w).
        let mut nonzero = Vec::new();
        agg.for_each_nonzero(|i, _| nonzero.push(i));
        assert_eq!(nonzero, vec![0, 7]);
    }

    #[test]
    fn changed_positions_bounded_by_q() {
        let mut s = strategy(0.25);
        let kept: Vec<(ClientId, Group, Upload)> = (0..3)
            .map(|i| {
                let vals: Vec<(u32, f32)> = (0..8)
                    .map(|j| (j as u32, (i + 1) as f32 * (j as f32 - 3.5)))
                    .collect();
                (
                    i,
                    Group::Fresh,
                    Upload::Sparse(SparseUpdate::from_pairs(8, vals)),
                )
            })
            .collect();
        let mut pool = ScratchPool::new();
        let agg = fold_in_id_order(&mut s, 0, &kept, &mut pool);
        assert!(agg.nnz() <= 2, "mask covers {} > q·d = 2", agg.nnz());
        let mut changed = 0usize;
        agg.for_each_nonzero(|_, _| changed += 1);
        assert!(changed <= 2, "changed {changed} exceeds q·d = 2");
    }

    #[test]
    fn plan_is_uniform_without_stickiness() {
        let mut s = strategy(0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let plan = s.plan_round(0, &mut rng, &mut gluefl_sampling::AllOnline);
        assert!(plan.sticky_invites.is_empty());
        assert_eq!(plan.fresh_invites.len(), 3);
    }
}
