//! MD-FedAvg (Li et al. 2020a) is [`super::Sampler::Multinomial`] plus
//! FedAvg's dense fold, and has no type of its own; these tests pin that
//! pairing.

mod tests {
    use crate::scratch::ScratchPool;
    use crate::strategies::{DenseFold, Group, Sampler, Strategy, Upload};
    use crate::StrategyConfig;
    use gluefl_sampling::ClientId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Round size 4 over twelve clients; client 3 has triple the weight
    /// of the others.
    fn sampler() -> Sampler {
        let mut w = vec![1.0; 12];
        w[3] = 3.0;
        let mut rng = StdRng::seed_from_u64(0);
        Sampler::for_test(StrategyConfig::MdFedAvg, &w, 4, 1.0, &mut rng)
    }

    fn drawn(s: &Sampler) -> &[(ClientId, u32)] {
        match s {
            Sampler::Multinomial { drawn, .. } => drawn,
            other => panic!("MD-FedAvg samples multinomially, not {other:?}"),
        }
    }

    #[test]
    fn plan_draws_k_with_multiplicity() {
        let mut s = sampler();
        let mut rng = StdRng::seed_from_u64(0);
        let mut repeated = false;
        for _ in 0..50 {
            let plan = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
            let total: u32 = drawn(&s).iter().map(|&(_, m)| m).sum();
            assert_eq!(total, 4);
            assert_eq!(plan.keep_fresh, plan.fresh_invites.len());
            assert!(plan.fresh_invites.len() <= 4);
            // A repeated draw is one invitation: the ids are distinct.
            assert!(plan.fresh_invites.windows(2).all(|w| w[0] < w[1]));
            repeated |= plan.fresh_invites.len() < 4;
            // Touched-set bound: per-round state is O(K) pairs, never an
            // O(N) population vector.
            let Sampler::Multinomial { drawn, raw, .. } = &s else {
                unreachable!()
            };
            assert!(drawn.len() <= 4);
            assert!(raw.len() <= 4);
        }
        assert!(repeated, "twelve clients, fifty rounds: some draw repeats");
    }

    #[test]
    fn weights_sum_to_one_per_round() {
        let mut s = sampler();
        let mut rng = StdRng::seed_from_u64(1);
        for round in 0..50 {
            let plan = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
            let total: f64 = plan
                .fresh_invites
                .iter()
                .map(|&id| s.weight(id, Group::Fresh))
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "round {round}: {total}");
        }
    }

    #[test]
    fn heavy_clients_drawn_more_often() {
        let mut s = sampler();
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = [0u32; 12];
        for _ in 0..4000 {
            let _ = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
            for &(i, m) in drawn(&s) {
                hits[i] += m;
            }
        }
        // Client 3 holds 3/14 of the mass; others 1/14 each.
        let f3 = f64::from(hits[3]) / f64::from(hits.iter().sum::<u32>());
        assert!((f3 - 3.0 / 14.0).abs() < 0.02, "client 3 frequency {f3}");
    }

    #[test]
    fn respects_availability() {
        let mut s = sampler();
        let mut rng = StdRng::seed_from_u64(3);
        let mut avail = vec![true; 12];
        avail[3] = false;
        for round in 0..20 {
            let plan = s.plan(&mut rng, &mut gluefl_sampling::DenseOnline(&avail));
            assert!(!plan.fresh_invites.contains(&3), "round {round}");
        }
    }

    #[test]
    fn aggregate_uses_multiplicity_weights() {
        let mut s = sampler();
        let mut rng = StdRng::seed_from_u64(4);
        let plan = s.plan(&mut rng, &mut gluefl_sampling::AllOnline);
        let kept: Vec<(ClientId, f32, Upload)> = plan
            .fresh_invites
            .iter()
            .map(|&id| {
                let w = s.weight(id, Group::Fresh) as f32;
                (id, w, Upload::Dense(vec![1.0f32; 6]))
            })
            .collect();
        let mut pool = ScratchPool::new();
        let mut fold = Strategy::Dense(DenseFold::new(6));
        let agg = crate::stream::fold_through_gate(&mut fold, 0, &kept, &mut pool);
        // Weights sum to 1, every delta is all-ones → aggregate all-ones.
        assert!(agg.is_dense());
        for v in agg.values() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
