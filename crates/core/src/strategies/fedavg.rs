//! FedAvg's dense fold (McMahan et al. 2017; §2.1), shared by FedAvg and
//! MD-FedAvg — the two differ only in their [`super::Sampler`].

use crate::scratch::ScratchPool;
use gluefl_tensor::MaskedUpdate;

/// The no-compression baseline, [`super::Strategy::Dense`]: dense
/// uploads, dense aggregation `w ← w + Σ w_i Δ_i` — `w_i = (N/K)·p_i`
/// under uniform sampling (Equation 2), `m_i/K` under multinomial
/// sampling. STC folds the same way and re-masks the sum afterwards.
#[derive(Debug)]
pub struct DenseFold {
    pub(super) dim: usize,
    /// The round's `dim`-length partial sum; empty between rounds.
    pub(super) acc: Vec<f32>,
}

impl DenseFold {
    /// The dense fold over a model of `dim` parameters.
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            dim,
            acc: Vec::new(),
        }
    }

    /// The round's sum under a full mask.
    pub(super) fn finish(&mut self, scratch: &mut ScratchPool) -> MaskedUpdate {
        let values = std::mem::take(&mut self.acc);
        let mut mask = scratch.take_mask(self.dim);
        mask.fill_ones();
        MaskedUpdate::new(mask, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{Group, Sampler, Strategy, Upload};
    use crate::stream::fold_in_id_order;
    use crate::StrategyConfig;
    use gluefl_sampling::ClientId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler() -> Sampler {
        let mut rng = StdRng::seed_from_u64(0);
        Sampler::for_test(StrategyConfig::FedAvg, &[0.05; 20], 4, 1.25, &mut rng)
    }

    #[test]
    fn plan_invites_oc_times_k() {
        let mut s = sampler();
        let mut rng = StdRng::seed_from_u64(0);
        let plan = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
        assert_eq!(plan.fresh_invites.len(), 5);
        assert_eq!(plan.keep_fresh, 4);
        assert!(plan.sticky_invites.is_empty());
    }

    #[test]
    fn weight_is_n_over_k_times_p() {
        let s = sampler();
        assert!((s.weight(3, Group::Fresh) - 20.0 / 4.0 * 0.05).abs() < 1e-12);
    }

    #[test]
    fn aggregate_weighted_mean_of_dense() {
        let s = sampler();
        let w = |id| s.weight(id, Group::Fresh) as f32;
        let mut fold = Strategy::Dense(DenseFold::new(8));
        // Two clients with opposite unit deltas and equal weights: the
        // aggregate is zero.
        let kept = vec![
            (0usize, w(0), Upload::Dense(vec![1.0; 8])),
            (1usize, w(1), Upload::Dense(vec![-1.0; 8])),
        ];
        let mut pool = ScratchPool::new();
        let agg = fold_in_id_order(&mut fold, 0, &kept, &mut pool);
        assert!(agg.is_dense(), "FedAvg must return a full-mask update");
        assert!(agg.values().iter().all(|v| v.abs() < 1e-9));
        // One client: agg = weight · delta.
        let kept = vec![(2usize, w(2), Upload::Dense(vec![2.0; 8]))];
        let agg = fold_in_id_order(&mut fold, 0, &kept, &mut pool);
        assert!(agg.values().iter().all(|v| (*v - 2.0 * w(2)).abs() < 1e-6));
    }

    #[test]
    fn expected_aggregate_is_unbiased_over_sampling() {
        // Monte Carlo check of E[Δ] = Σ p_i Δ_i for uniform sampling with
        // (N/K)p_i weights: client i's delta is e_i (indicator), so the
        // expected aggregate at position i must approach p_i.
        let n = 10;
        let k = 3;
        let weights = vec![1.0 / n as f64; n];
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = Sampler::for_test(StrategyConfig::FedAvg, &weights, k, 1.0, &mut rng);
        let mut fold = Strategy::Dense(DenseFold::new(n));
        let trials = 20_000;
        let mut acc = vec![0.0f64; n];
        for _ in 0..trials {
            let plan = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
            let kept: Vec<(ClientId, f32, Upload)> = plan
                .fresh_invites
                .iter()
                .map(|&id| {
                    let mut delta = vec![0.0f32; n];
                    delta[id] = 1.0;
                    (id, s.weight(id, Group::Fresh) as f32, Upload::Dense(delta))
                })
                .collect();
            let mut pool = ScratchPool::new();
            let agg = fold_in_id_order(&mut fold, 0, &kept, &mut pool);
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
        let s = Strategy::Dense(DenseFold::new(8));
        assert!(s.round_mask().is_none());
    }
}
