//! APF: Adaptive Parameter Freezing as a server masking strategy
//! (Chen et al. 2021; the paper's parameter-freezing baseline).

use super::Upload;
use crate::scratch::ScratchPool;
use gluefl_compress::{Apf, ApfConfig};
use gluefl_tensor::{vecops, BitMask, MaskedUpdate};

/// APF's fold, [`super::Strategy::Apf`] (it samples uniformly): the
/// server maintains a per-parameter freeze state; each round only
/// *active* (unfrozen) parameters are trained, uploaded (values aligned
/// to the known active mask), aggregated, and synchronised. The active
/// mask itself is broadcast as a bitmap.
///
/// Because every upload of a round is aligned to the same active mask,
/// aggregation runs entirely in the packed layout: the clients' value
/// arrays are summed contiguously and the result *is* the round's
/// [`MaskedUpdate`] — no dense `d`-sized accumulator is ever built.
#[derive(Debug)]
pub struct ApfFold {
    apf: Apf,
    /// Cached copy of [`Apf::active_mask`] for the current round
    /// (refreshed after each observe): the mask the round broadcasts,
    /// and the alignment of every known-mask upload until
    /// [`finish`](Self::finish) refreshes it.
    pub(super) active: BitMask,
    dim: usize,
    /// The round's partial sum, packed over `active`; empty between
    /// rounds.
    acc: Vec<f32>,
}

impl ApfFold {
    /// Creates the fold over `dim` flat parameters.
    ///
    /// BN statistics need no special casing here: they receive zero
    /// "update" signal from the strategy's viewpoint and [`Apf`] never
    /// freezes a zero-signal parameter.
    pub(super) fn new(config: ApfConfig, dim: usize) -> Self {
        let apf = Apf::new(dim, config);
        let active = apf.active_mask();
        Self {
            apf,
            active,
            dim,
            acc: Vec::new(),
        }
    }

    /// Opens the packed sum over the active mask — no dense `d`-sized
    /// accumulator exists on the streaming path either.
    pub(super) fn begin(&mut self, scratch: &mut ScratchPool) {
        self.acc = scratch.take_zeroed(self.active.count_ones());
    }

    /// Adds `weight ×` a known-mask upload into the packed sum.
    pub(super) fn upload(&mut self, weight: f32, upload: &Upload) {
        let Upload::KnownMask(u) = upload else {
            panic!("APF aggregate received non-known-mask upload {upload:?}")
        };
        assert_eq!(
            u.nnz(),
            self.acc.len(),
            "upload not aligned to the active mask"
        );
        vecops::axpy(&mut self.acc, weight, u.values());
    }

    /// The packed sum under the mask it was folded over; then the freeze
    /// state observes it and the active mask moves on.
    pub(super) fn finish(&mut self, scratch: &mut ScratchPool) -> MaskedUpdate {
        let values = std::mem::take(&mut self.acc);
        self.apf.observe_masked(&values, &self.active);
        let mut mask = scratch.take_mask(self.dim);
        mask.copy_from(&self.active);
        self.apf.fill_active_mask(&mut self.active);
        MaskedUpdate::new(mask, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{Group, Sampler, Strategy};
    use crate::stream::fold_in_id_order;
    use crate::StrategyConfig;
    use gluefl_sampling::ClientId;
    use gluefl_tensor::MaskAligned;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> ApfConfig {
        ApfConfig {
            threshold: 0.1,
            ema_beta: 0.9,
            initial_period: 2,
            max_period: 8,
            warmup_rounds: 3,
        }
    }

    fn strategy() -> Strategy {
        Strategy::Apf(ApfFold::new(cfg(), 6))
    }

    /// APF's sampler: uniform over ten clients with round size 3.
    fn sampler() -> Sampler {
        let mut rng = StdRng::seed_from_u64(0);
        Sampler::for_test(
            StrategyConfig::Apf { config: cfg() },
            &[0.1; 10],
            3,
            1.0,
            &mut rng,
        )
    }

    /// Twenty rounds where positions 0..3 oscillate and 3..6 move
    /// steadily, three clients each uploading under the round's active
    /// mask; `each_round` sees the mask in force and the aggregate.
    fn drive(s: &mut Strategy, mut each_round: impl FnMut(u32, &BitMask, &MaskedUpdate)) {
        let sampler = sampler();
        let mut pool = ScratchPool::new();
        for r in 0..20 {
            let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
            let delta = [sign * 0.5, sign * 0.5, sign * 0.5, 0.5, 0.5, 0.5];
            let active = s.round_mask().expect("APF broadcasts its mask").clone();
            let kept: Vec<(ClientId, f32, Upload)> = (0..3)
                .map(|id| {
                    let up = MaskAligned::gather(&delta, &active);
                    let w = sampler.weight(id, Group::Fresh) as f32;
                    (id, w, Upload::KnownMask(up))
                })
                .collect();
            let agg = fold_in_id_order(s, r, &kept, &mut pool);
            each_round(r, &active, &agg);
        }
    }

    #[test]
    fn everything_active_initially() {
        let s = strategy();
        assert_eq!(s.round_mask().unwrap().count_ones(), 6);
    }

    #[test]
    fn oscillating_positions_get_frozen_and_the_mask_shrinks() {
        let mut s = strategy();
        drive(&mut s, |_, _, _| {});
        // Steady positions must still be active.
        let active = s.round_mask().unwrap();
        assert!(active.get(4) && active.get(5));
        assert!(active.count_ones() < 6, "no position was dropped");
    }

    #[test]
    fn frozen_positions_do_not_change_in_aggregate() {
        let mut s = strategy();
        // The update's support is exactly the mask in force *before* the
        // fold advances the APF state, so frozen positions are
        // structurally excluded from the apply.
        drive(&mut s, |r, active_before, agg| {
            assert_eq!(agg.mask(), active_before, "round {r}");
            agg.for_each_nonzero(|j, _| {
                assert!(active_before.get(j), "frozen position {j} changed");
            });
        });
    }

    #[test]
    fn mask_bitmap_is_charged_per_sync() {
        let s = strategy();
        let mask = s.round_mask().expect("the active mask travels");
        assert_eq!(gluefl_wire::legacy_mask_len(mask.len()), 1 + 16); // ceil(6/8) + header
    }

    #[test]
    fn weight_matches_fedavg_rule() {
        let s = sampler();
        assert!((s.weight(2, Group::Fresh) - 10.0 / 3.0 * 0.1).abs() < 1e-12);
    }
}
