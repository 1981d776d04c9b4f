//! Masked-apply equivalence: the `MaskedUpdate` pipeline (compress →
//! fold → word-level masked apply, with all buffers recycled through
//! the [`ScratchPool`]) must produce **bit-identical** global parameters
//! to the dense-apply reference (densify the update, dense `add_assign`)
//! over many rounds, for GlueFL, STC, and FedAvg.
//!
//! Every piece is built from one `SimConfig`, as every driver builds
//! them: the sampler by `Sampler::new`, the fold by `Strategy::new`,
//! the client half by `ClientCompressor::new`.

use gluefl_compress::{ApfConfig, CompensationMode};
use gluefl_core::strategies::{Sampler, Strategy, Upload};
use gluefl_core::stream::fold_in_id_order;
use gluefl_core::{ClientCompressor, GlueFlParams, ScratchPool, SimConfig, StrategyConfig};
use gluefl_suite::tensor::{vecops, BitMask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 30;
const K: usize = 6;
const DIM: usize = 300;
const STATS: usize = 20; // last 20 positions mimic BN statistics
const ROUNDS: u32 = 8;

fn stats_excluded() -> BitMask {
    BitMask::from_indices(DIM, DIM - STATS..DIM)
}

/// Drives `rounds` full strategy rounds with deterministic pseudo-random
/// client deltas, maintaining two copies of the global parameters: one
/// updated through the masked pipeline (`MaskedUpdate::add_to`), one
/// through the dense reference (`to_dense` + `add_assign`). Both must
/// stay bit-identical, and the masked changed-position scan must agree
/// with a dense scan.
fn assert_masked_apply_matches_dense_reference(strategy_cfg: StrategyConfig, seed: u64) {
    let mut cfg = SimConfig::paper_setup(
        gluefl_data::DatasetProfile::Femnist,
        gluefl_ml::DatasetModel::ShuffleNet,
        strategy_cfg,
        0.02,
        ROUNDS,
        seed,
    );
    cfg.round_size = K;
    cfg.oc = 1.0;
    let weights = vec![1.0 / N as f64; N];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = Sampler::new(&cfg, &weights, &mut rng);
    let mut strategy = Strategy::new(&cfg, DIM - STATS, DIM, stats_excluded(), &mut rng);
    let mut clients = ClientCompressor::new(&cfg, &weights, DIM - STATS, DIM, stats_excluded());
    let name = cfg.strategy.name();
    let mut pool = ScratchPool::new();
    let mut delta_rng = StdRng::seed_from_u64(seed ^ 0xD17A);
    let mut params_masked: Vec<f32> = (0..DIM)
        .map(|_| delta_rng.gen_range(-1.0f32..1.0))
        .collect();
    let mut params_ref = params_masked.clone();

    for round in 0..ROUNDS {
        let plan = sampler.plan(&mut rng, &mut gluefl_sampling::AllOnline);
        let mut kept: Vec<(usize, f32, Upload)> = Vec::new();
        for (id, group) in plan.invited() {
            // Trainable random delta with BN-statistic positions zeroed,
            // exactly as local training hands deltas to the client half.
            let mut delta: Vec<f32> = (0..DIM)
                .map(|i| {
                    if i >= DIM - STATS {
                        0.0
                    } else {
                        delta_rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect();
            let mask = strategy.round_mask();
            let mut residual = clients.check_out(id);
            let upload = clients
                .compress(round, id, group, &mut delta, mask, &mut residual, &mut pool)
                .expect("masking strategies expose their round mask");
            clients.check_in(id, residual);
            kept.push((id, sampler.weight(id, group) as f32, upload));
        }
        let update = fold_in_id_order(&mut strategy, round, &kept, &mut pool);

        // Masked pipeline: word-level scatter / masked AXPY.
        update.add_to(&mut params_masked);
        let mut changed_masked = Vec::new();
        update.for_each_nonzero(|i, _| changed_masked.push(i));

        // Dense reference: densify, then a plain dense add.
        let dense = update.to_dense();
        vecops::add_assign(&mut params_ref, &dense);
        let changed_ref: Vec<usize> = dense
            .iter()
            .enumerate()
            .filter_map(|(i, v)| (*v != 0.0).then_some(i))
            .collect();

        assert_eq!(
            changed_masked, changed_ref,
            "{name}: changed-position scans diverged at round {round}"
        );
        for i in 0..DIM {
            assert_eq!(
                params_masked[i].to_bits(),
                params_ref[i].to_bits(),
                "{name}: params diverged at round {round}, position {i}: \
                 masked {} vs dense {}",
                params_masked[i],
                params_ref[i]
            );
        }

        // Recycle everything, as the simulator does — later rounds then
        // run on reused buffers, which must not perturb the results.
        for (_, _, upload) in kept {
            pool.reclaim_upload(upload);
        }
        pool.put_update(update);
        sampler.rebalance(&mut rng, &plan.sticky_invites, &plan.fresh_invites);
    }
    assert!(
        pool.idle_buffers() > 0,
        "{name}: pool never saw a recycled buffer"
    );
}

#[test]
fn fedavg_masked_pipeline_is_bit_identical_to_dense_apply() {
    assert_masked_apply_matches_dense_reference(StrategyConfig::FedAvg, 11);
}

#[test]
fn apf_masked_pipeline_is_bit_identical_to_dense_apply() {
    // APF is the one strategy whose (warm-up) active mask covers the
    // BN-statistic positions — with exact-zero packed values, per the
    // Strategy contract — and whose aggregation runs entirely in the
    // packed layout; a short warm-up makes freezing shrink the mask
    // within the tested window.
    let config = ApfConfig {
        threshold: 0.1,
        ema_beta: 0.9,
        initial_period: 2,
        max_period: 8,
        warmup_rounds: 3,
    };
    assert_masked_apply_matches_dense_reference(StrategyConfig::Apf { config }, 44);
}

#[test]
fn stc_masked_pipeline_is_bit_identical_to_dense_apply() {
    assert_masked_apply_matches_dense_reference(StrategyConfig::Stc { q: 0.25 }, 22);
}

#[test]
fn gluefl_masked_pipeline_is_bit_identical_to_dense_apply() {
    let params = GlueFlParams {
        q: 0.3,
        q_shr: 0.2,
        sticky_group: 12,
        sticky_draw: 4,
        // Interval 3 puts regeneration rounds (empty shared parts, full-q
        // unique top-k) inside the tested window.
        regen_interval: Some(3),
        compensation: CompensationMode::Rescaled,
        equal_weights: false,
    };
    assert_masked_apply_matches_dense_reference(StrategyConfig::GlueFl(params), 33);
}
