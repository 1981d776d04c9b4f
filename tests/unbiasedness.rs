//! Theorem-1 integration test: the sticky-sampling aggregate is unbiased
//! — Monte Carlo over the *actual* sticky sampler (plan → weigh →
//! rebalance) and the reference round's fold
//! (`crates/core/tests/reference/`), which the round engine plays bit
//! for bit. With `q = q_shr = 1` masking is the identity and no client is
//! dismissed, so a round's update is exactly that fold of the invited
//! clients' deltas at their weights.

#[path = "../crates/core/tests/reference/mod.rs"]
mod reference;

use gluefl_compress::CompensationMode;
use gluefl_core::strategies::Sampler;
use gluefl_core::{GlueFlParams, SimConfig, StrategyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GlueFL's sampler over a population with importance weights
/// `weights`, round size `k`, no over-commitment.
fn sampler(params: GlueFlParams, weights: &[f64], k: usize, rng: &mut StdRng) -> Sampler {
    let mut cfg = SimConfig::paper_setup(
        gluefl_data::DatasetProfile::Femnist,
        gluefl_ml::DatasetModel::ShuffleNet,
        StrategyConfig::GlueFl(params),
        0.02,
        1,
        0,
    );
    cfg.round_size = k;
    cfg.oc = 1.0;
    Sampler::new(&cfg, weights, rng)
}

/// One round where client `i`'s delta is the indicator vector `e_i`,
/// folded in ascending client id at the sampler's weights; calls
/// `sink(position, value)` for every nonzero of the aggregate.
fn indicator_round(s: &mut Sampler, n: usize, rng: &mut StdRng, mut sink: impl FnMut(usize, f32)) {
    let plan = s.plan(rng, &mut gluefl_sampling::AllOnline);
    let mut invited: Vec<_> = plan.invited().collect();
    invited.sort_by_key(|&(id, _)| id);
    let uploads: Vec<(f32, reference::Entries)> = invited
        .into_iter()
        .map(|(id, group)| (s.weight(id, group) as f32, vec![(id, 1.0, true)]))
        .collect();
    let [_, shared] = reference::fold(n, uploads.iter().map(|(w, e)| (*w, e)));
    for (i, &v) in shared.iter().enumerate().filter(|(_, v)| **v != 0.0) {
        sink(i, v);
    }
    s.rebalance(rng, &plan.sticky_invites, &plan.fresh_invites);
}

/// Runs many rounds where client `i`'s delta is the indicator vector
/// `e_i`; the expected aggregate must converge to `p_i` at position `i`
/// (Theorem 1). Uses `q = q_shr = 1` so masking is the identity and the
/// only randomness is the sampler's.
#[test]
fn gluefl_aggregate_is_unbiased_monte_carlo() {
    let n = 24usize;
    let k = 6usize;
    let params = GlueFlParams {
        q: 1.0,
        q_shr: 1.0,
        sticky_group: 12,
        sticky_draw: 4,
        regen_interval: None,
        compensation: CompensationMode::None,
        equal_weights: false,
    };
    // Non-uniform importance weights to make the test sharp.
    let raw: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let total: f64 = raw.iter().sum();
    let weights: Vec<f64> = raw.iter().map(|w| w / total).collect();

    let mut rng = StdRng::seed_from_u64(99);
    let mut s = sampler(params, &weights, k, &mut rng);

    let trials = 40_000u32;
    let mut acc = vec![0.0f64; n];
    for _ in 0..trials {
        indicator_round(&mut s, n, &mut rng, |i, v| acc[i] += f64::from(v));
    }

    for i in 0..n {
        let mean = acc[i] / f64::from(trials);
        assert!(
            (mean - weights[i]).abs() < 0.15 * weights[i] + 0.002,
            "position {i}: E[Δ_i] = {mean:.5} vs p_i = {:.5}",
            weights[i]
        );
    }
}

/// The biased Equal variant must *fail* the same test: with equal `1/K`
/// weights, sticky clients (selected more often) are over-represented.
#[test]
fn equal_weights_are_biased_toward_sticky_clients() {
    let n = 24usize;
    let k = 6usize;
    let params = GlueFlParams {
        q: 1.0,
        q_shr: 1.0,
        sticky_group: 12,
        sticky_draw: 5, // heavily sticky rounds
        regen_interval: None,
        compensation: CompensationMode::None,
        equal_weights: true,
    };
    let weights = vec![1.0 / n as f64; n];
    let mut rng = StdRng::seed_from_u64(5);
    let mut s = sampler(params, &weights, k, &mut rng);
    // Track how much aggregate weight lands on currently-sticky clients.
    let trials = 5_000u32;
    let mut sticky_mass = 0.0f64;
    let mut total_mass = 0.0f64;
    for _ in 0..trials {
        let group = s.sticky().expect("GlueFL samples stickily");
        let was_sticky: Vec<bool> = (0..n).map(|i| group.is_sticky(i)).collect();
        indicator_round(&mut s, n, &mut rng, |i, v| {
            total_mass += f64::from(v);
            if was_sticky[i] {
                sticky_mass += f64::from(v);
            }
        });
    }
    let sticky_share = sticky_mass / total_mass;
    // Unbiased share would be S/N = 0.5; equal weights give C/K = 5/6.
    assert!(
        sticky_share > 0.7,
        "expected heavy sticky bias, got share {sticky_share:.3}"
    );
}
