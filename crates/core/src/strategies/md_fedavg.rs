//! FedAvg with multinomial (MD) client sampling (Li et al. 2020a).

use super::{FoldAcc, Group, RoundPlan, Strategy, Upload};
use crate::scratch::ScratchPool;
use gluefl_sampling::{ClientId, MdSampler, OnlineQuery};
use gluefl_tensor::MaskedUpdate;
use rand::rngs::StdRng;

/// FedAvg where each round's `K` participants are drawn i.i.d. from the
/// multinomial distribution over importance weights `p_i` (§6, "Client
/// sampling"). A client drawn `m` times contributes with weight `m/K`,
/// which keeps the aggregate unbiased: `E[Δ] = Σ p_i Δ_i`.
///
/// Over-commitment is not applied: MD sampling is a statistical baseline
/// and every drawn update is kept (duplicates collapse into one invitation
/// with multiplicity).
#[derive(Debug)]
pub struct MdFedAvgStrategy {
    sampler: MdSampler,
    k: usize,
    dim: usize,
    /// The current round's draws as `(client, multiplicity)`, sorted by
    /// client id — the *only* per-round state, O(K) entries. No O(N)
    /// population-length vector exists anywhere in this strategy, so
    /// construction and planning touch O(K) memory regardless of N.
    drawn: Vec<(ClientId, u32)>,
    /// Raw accepted draws of the round in draw order, reused across
    /// rounds so planning allocates nothing in steady state.
    raw: Vec<ClientId>,
}

impl MdFedAvgStrategy {
    /// Creates the strategy for importance weights `p_i` (need not be
    /// normalised) and model dimension `dim`.
    ///
    /// # Panics
    /// Panics if the weights are not a valid distribution.
    #[must_use]
    pub fn new(weights: Vec<f64>, k: usize, dim: usize) -> Self {
        Self {
            sampler: MdSampler::new(weights).expect("valid client weights"),
            k,
            dim,
            drawn: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Draw multiplicity of `id` in the current round (0 if not drawn).
    fn multiplicity_of(&self, id: ClientId) -> u32 {
        self.drawn
            .binary_search_by_key(&id, |&(c, _)| c)
            .map_or(0, |i| self.drawn[i].1)
    }
}

impl Strategy for MdFedAvgStrategy {
    fn name(&self) -> String {
        "md-fedavg".into()
    }

    fn plan_round(
        &mut self,
        _round: u32,
        rng: &mut StdRng,
        online: &mut dyn OnlineQuery,
    ) -> RoundPlan {
        self.raw.clear();
        let mut attempts = 0usize;
        // Rejection-sample against availability (equivalent to MD sampling
        // over the online sub-population, re-normalised). Each CDF draw is
        // O(log N) and the accepted draws land in an O(K) scratch list, so
        // a round is O(K log N) memory-touches included — independent of N.
        while self.raw.len() < self.k && attempts < self.k * 200 {
            attempts += 1;
            let id = self.sampler.draw_one(rng);
            if online.is_online(id) {
                self.raw.push(id);
            }
        }
        // Collapse the accepted draws into sorted (client, multiplicity)
        // run-length pairs — duplicates become one invitation with weight.
        self.raw.sort_unstable();
        self.drawn.clear();
        for &id in &self.raw {
            match self.drawn.last_mut() {
                Some((c, m)) if *c == id => *m += 1,
                _ => self.drawn.push((id, 1)),
            }
        }
        let invites: Vec<ClientId> = self.drawn.iter().map(|&(c, _)| c).collect();
        RoundPlan {
            sticky_invites: Vec::new(),
            keep_fresh: invites.len(),
            fresh_invites: invites,
            keep_sticky: 0,
        }
    }

    fn client_weight(&self, id: ClientId, _group: Group) -> f64 {
        f64::from(self.multiplicity_of(id)) / self.k as f64
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
    use rand::SeedableRng;

    fn strategy() -> MdFedAvgStrategy {
        // Client 3 has triple the weight of the others.
        let mut w = vec![1.0; 12];
        w[3] = 3.0;
        MdFedAvgStrategy::new(w, 4, 6)
    }

    #[test]
    fn plan_draws_k_with_multiplicity() {
        let mut s = strategy();
        let mut rng = StdRng::seed_from_u64(0);
        let plan = s.plan_round(0, &mut rng, &mut gluefl_sampling::AllOnline);
        let total: u32 = s.drawn.iter().map(|&(_, m)| m).sum();
        assert_eq!(total, 4);
        assert_eq!(plan.keep_fresh, plan.fresh_invites.len());
        assert!(plan.fresh_invites.len() <= 4);
        // Touched-set bound: per-round state is O(K) pairs, never an O(N)
        // population vector.
        assert!(s.drawn.len() <= 4);
        assert!(s.raw.len() <= 4);
    }

    #[test]
    fn weights_sum_to_one_per_round() {
        let mut s = strategy();
        let mut rng = StdRng::seed_from_u64(1);
        for round in 0..50 {
            let plan = s.plan_round(round, &mut rng, &mut gluefl_sampling::AllOnline);
            let total: f64 = plan
                .fresh_invites
                .iter()
                .map(|&id| s.client_weight(id, Group::Fresh))
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "round {round}: {total}");
        }
    }

    #[test]
    fn heavy_clients_drawn_more_often() {
        let mut s = strategy();
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = [0u32; 12];
        for round in 0..4000 {
            let _ = s.plan_round(round, &mut rng, &mut gluefl_sampling::AllOnline);
            for &(i, m) in &s.drawn {
                hits[i] += m;
            }
        }
        // Client 3 holds 3/14 of the mass; others 1/14 each.
        let f3 = f64::from(hits[3]) / f64::from(hits.iter().sum::<u32>());
        assert!((f3 - 3.0 / 14.0).abs() < 0.02, "client 3 frequency {f3}");
    }

    #[test]
    fn respects_availability() {
        let mut s = strategy();
        let mut rng = StdRng::seed_from_u64(3);
        let mut avail = vec![true; 12];
        avail[3] = false;
        for round in 0..20 {
            let plan = s.plan_round(round, &mut rng, &mut gluefl_sampling::DenseOnline(&avail));
            assert!(!plan.fresh_invites.contains(&3), "round {round}");
        }
    }

    #[test]
    fn aggregate_uses_multiplicity_weights() {
        let mut s = strategy();
        let mut rng = StdRng::seed_from_u64(4);
        let plan = s.plan_round(0, &mut rng, &mut gluefl_sampling::AllOnline);
        let kept: Vec<(ClientId, Group, Upload)> = plan
            .fresh_invites
            .iter()
            .map(|&id| (id, Group::Fresh, Upload::Dense(vec![1.0f32; 6])))
            .collect();
        let mut pool = ScratchPool::new();
        let agg = crate::stream::fold_in_id_order(&mut s, 0, &kept, &mut pool);
        // Weights sum to 1, every delta is all-ones → aggregate all-ones.
        assert!(agg.is_dense());
        for v in agg.values() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
