//! FedAvg with uniform client sampling (McMahan et al. 2017; §2.1).

use super::{FoldAcc, Group, RoundPlan, Strategy, Upload};
use crate::scratch::ScratchPool;
use gluefl_sampling::{ClientId, OnlineQuery, UniformSampler};
use gluefl_tensor::MaskedUpdate;
use rand::rngs::StdRng;

/// The no-compression baseline: uniform sampling, dense uploads, dense
/// aggregation `w ← w + (N/K)·Σ p_i Δ_i` (Equation 2).
#[derive(Debug)]
pub struct FedAvgStrategy {
    sampler: UniformSampler,
    k: usize,
    oc: f64,
    weights: Vec<f64>,
    dim: usize,
}

impl FedAvgStrategy {
    /// Creates the strategy for `n` clients, round size `k`, over-commit
    /// factor `oc`, importance weights `p_i`, and model dimension `dim`.
    #[must_use]
    pub fn new(n: usize, k: usize, oc: f64, weights: Vec<f64>, dim: usize) -> Self {
        assert_eq!(weights.len(), n, "weights length must equal population");
        Self {
            sampler: UniformSampler::new(n),
            k,
            oc,
            weights,
            dim,
        }
    }
}

impl Strategy for FedAvgStrategy {
    fn name(&self) -> String {
        "fedavg".into()
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
        // Equation 2: (N/K)·p_i.
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
        let values = acc.dense.expect("fold_begin allocates the accumulator");
        let mut mask = scratch.take_mask(self.dim);
        mask.fill_ones();
        MaskedUpdate::new(mask, values)
    }

    fn finish_round(&mut self, _round: u32, _rng: &mut StdRng, _s: &[ClientId], _f: &[ClientId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::fold_in_id_order;
    use rand::SeedableRng;

    fn strategy() -> FedAvgStrategy {
        FedAvgStrategy::new(20, 4, 1.25, vec![0.05; 20], 8)
    }

    #[test]
    fn plan_invites_oc_times_k() {
        let mut s = strategy();
        let mut rng = StdRng::seed_from_u64(0);
        let plan = s.plan_round(0, &mut rng, &mut gluefl_sampling::AllOnline);
        assert_eq!(plan.fresh_invites.len(), 5);
        assert_eq!(plan.keep_fresh, 4);
        assert!(plan.sticky_invites.is_empty());
    }

    #[test]
    fn weight_is_n_over_k_times_p() {
        let s = strategy();
        assert!((s.client_weight(3, Group::Fresh) - 20.0 / 4.0 * 0.05).abs() < 1e-12);
    }

    #[test]
    fn aggregate_weighted_mean_of_dense() {
        let mut s = strategy();
        // Two clients with opposite unit deltas and equal weights: the
        // aggregate is zero.
        let kept = vec![
            (0usize, Group::Fresh, Upload::Dense(vec![1.0; 8])),
            (1usize, Group::Fresh, Upload::Dense(vec![-1.0; 8])),
        ];
        let mut pool = ScratchPool::new();
        let agg = fold_in_id_order(&mut s, 0, &kept, &mut pool);
        assert!(agg.is_dense(), "FedAvg must return a full-mask update");
        assert!(agg.values().iter().all(|v| v.abs() < 1e-9));
        // One client: agg = weight · delta.
        let kept = vec![(2usize, Group::Fresh, Upload::Dense(vec![2.0; 8]))];
        let agg = fold_in_id_order(&mut s, 0, &kept, &mut pool);
        let w = s.client_weight(2, Group::Fresh) as f32;
        assert!(agg.values().iter().all(|v| (*v - 2.0 * w).abs() < 1e-6));
    }

    #[test]
    fn expected_aggregate_is_unbiased_over_sampling() {
        // Monte Carlo check of E[Δ] = Σ p_i Δ_i for uniform sampling with
        // (N/K)p_i weights: client i's delta is e_i (indicator), so the
        // expected aggregate at position i must approach p_i.
        let n = 10;
        let k = 3;
        let weights = vec![1.0 / n as f64; n];
        let mut s = FedAvgStrategy::new(n, k, 1.0, weights.clone(), n);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 20_000;
        let mut acc = vec![0.0f64; n];
        for _ in 0..trials {
            let plan = s.plan_round(0, &mut rng, &mut gluefl_sampling::AllOnline);
            let kept: Vec<(ClientId, Group, Upload)> = plan
                .fresh_invites
                .iter()
                .map(|&id| {
                    let mut delta = vec![0.0f32; n];
                    delta[id] = 1.0;
                    (id, Group::Fresh, Upload::Dense(delta))
                })
                .collect();
            let mut pool = ScratchPool::new();
            let agg = fold_in_id_order(&mut s, 0, &kept, &mut pool);
            for (a, g) in acc.iter_mut().zip(agg.values()) {
                *a += f64::from(*g);
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let mean = a / trials as f64;
            assert!(
                (mean - 0.1).abs() < 0.01,
                "position {i}: mean {mean} vs expected 0.1"
            );
        }
    }

    #[test]
    fn no_mask_is_broadcast() {
        let s = strategy();
        assert!(s.round_mask(0).is_none());
    }
}
