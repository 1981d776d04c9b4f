//! Theorem-1 integration test: the sticky-sampling aggregation pipeline is
//! unbiased end-to-end — Monte Carlo over the *actual* sampler, client
//! and fold code (plan → compress → weigh → fold → rebalance), not a
//! re-derivation.

use gluefl_compress::CompensationMode;
use gluefl_core::strategies::{Sampler, Strategy};
use gluefl_core::stream::fold_in_id_order;
use gluefl_core::{ClientCompressor, GlueFlParams, ScratchPool, SimConfig, StrategyConfig};
use gluefl_suite::tensor::BitMask;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GlueFL's server side — the sticky sampler and the fold, drawn from
/// `rng` in the engine's order — and its client half, which every
/// invited client compresses through, over an `n`-dimensional model
/// with no BN statistics and no over-commitment.
struct GlueFl {
    sampler: Sampler,
    fold: Strategy,
    clients: ClientCompressor,
}

fn gluefl(params: GlueFlParams, weights: &[f64], k: usize, rng: &mut StdRng) -> GlueFl {
    let n = weights.len();
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
    GlueFl {
        sampler: Sampler::new(&cfg, weights, rng),
        fold: Strategy::new(&cfg, n, n, BitMask::zeros(n), rng),
        clients: ClientCompressor::new(&cfg, weights, n, n, BitMask::zeros(n)),
    }
}

/// One round where client `i`'s delta is the indicator vector `e_i`;
/// calls `sink(position, value)` for every nonzero of the aggregate.
fn indicator_round(
    g: &mut GlueFl,
    round: u32,
    rng: &mut StdRng,
    pool: &mut ScratchPool,
    mut sink: impl FnMut(usize, f32),
) {
    let n = g.fold.round_mask().expect("GlueFL broadcasts M_t").len();
    let plan = g.sampler.plan(rng, &mut gluefl_sampling::AllOnline);
    let mut kept = Vec::new();
    for (id, group) in plan.invited() {
        let mut delta = vec![0.0f32; n];
        delta[id] = 1.0;
        let mut residual = g.clients.check_out(id);
        let upload = g
            .clients
            .compress(
                round,
                id,
                group,
                &mut delta,
                g.fold.round_mask(),
                &mut residual,
                pool,
            )
            .expect("GlueFL exposes its round mask");
        g.clients.check_in(id, residual);
        kept.push((id, g.sampler.weight(id, group) as f32, upload));
    }
    let agg = fold_in_id_order(&mut g.fold, round, &kept, pool);
    agg.for_each_nonzero(&mut sink);
    g.sampler
        .rebalance(rng, &plan.sticky_invites, &plan.fresh_invites);
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
    let mut g = gluefl(params, &weights, k, &mut rng);

    let trials = 40_000u32;
    let mut acc = vec![0.0f64; n];
    let mut pool = ScratchPool::new();
    for round in 0..trials {
        indicator_round(&mut g, round, &mut rng, &mut pool, |i, v| {
            acc[i] += f64::from(v)
        });
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
    let mut pool = ScratchPool::new();
    let mut rng = StdRng::seed_from_u64(5);
    let mut g = gluefl(params, &weights, k, &mut rng);
    // Track how much aggregate weight lands on currently-sticky clients.
    let trials = 5_000u32;
    let mut sticky_mass = 0.0f64;
    let mut total_mass = 0.0f64;
    for round in 0..trials {
        let group = g.sampler.sticky().expect("GlueFL samples stickily");
        let was_sticky: Vec<bool> = (0..n).map(|i| group.is_sticky(i)).collect();
        indicator_round(&mut g, round, &mut rng, &mut pool, |i, v| {
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
