//! Local-training parity gates for the fused per-client path.
//!
//! Three invariants:
//!
//! 1. **Fused ≡ unfused** — [`gluefl_core::local_train_into`] (first step
//!    reading `global`, the SGD update as the epilogue of
//!    backward-weights, last step writing the delta, one *reused* slot)
//!    must produce bit-identical deltas to the oracle below, which does
//!    everything the long way round: deep model clone, a materialised
//!    gradient and a fresh allocating [`Sgd`] per client, a final masked
//!    subtraction. The oracle's forward/backward kernels are today's
//!    (`Mlp::loss_and_grad`, the gradient-materialising reference), so
//!    this gate pins the *fusion and reuse* semantics — step forms,
//!    implicit velocity reset, slot recycling, staging hygiene — across
//!    rounds, clients, step counts and model shapes; an arithmetic
//!    regression in the shared kernels is instead caught by
//!    `gemm_properties` (kernels ≡ plain-loop `*_ref` twins), the ml
//!    crate's finite-difference gradchecks and the round benchmark's
//!    `records_fnv` / `params_fnv` fingerprints.
//! 2. **Cohort ≡ oracle per client** — the cohort entry point
//!    ([`gluefl_core::batch_local_train_into`], a thin caller of the one
//!    cohort loop the simulator and every `parallel` shard run over
//!    their resident shards) is that routine in a loop, nothing more.
//! 3. **Serial/parallel parity** — with the `parallel` feature, the
//!    client-sharded training loop must reproduce the serial rounds
//!    bit for bit for both GlueFL and FedAvg. This is CI's
//!    `--features parallel` gate.

use gluefl_core::{
    batch_local_train_into, local_train_into, SimConfig, Simulation, StrategyConfig, TrainSlot,
};
use gluefl_data::DatasetProfile;
use gluefl_ml::{DatasetModel, Mlp, Sgd};
use gluefl_tensor::rng::{derive_seed, seeded_rng};
use gluefl_tensor::vecops;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_cfg(strategy: StrategyConfig, rounds: u32) -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        strategy,
        0.01,
        rounds,
        11,
    );
    cfg.model.hidden = vec![20];
    cfg.dataset.feature_dim = 14;
    cfg.dataset.classes = 8;
    cfg.dataset.test_samples = 200;
    cfg.eval_every = 2;
    cfg.availability = None;
    cfg.initial_lr = 0.04;
    cfg
}

/// The unfused oracle: deep model clone, a fresh allocating optimizer,
/// per-step allocating minibatch and materialised-gradient calls, a
/// final masked subtraction; the arithmetic kernels underneath are
/// today's — see the module docs for what this does and does not pin.
#[allow(clippy::too_many_arguments)]
fn reference_local_train(
    proto: &Mlp,
    global: &[f32],
    data: &gluefl_data::SyntheticFlDataset,
    id: usize,
    steps: usize,
    batch: usize,
    lr: f32,
    momentum: f32,
    seed: u64,
    out: &mut [f32],
    stats_positions: &[usize],
    stats_out: &mut [f32],
    trainable_mask: &gluefl_tensor::BitMask,
) {
    let mut model = proto.clone();
    model.set_params(global);
    let ds = data.client(id);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt = Sgd::new(model.num_params(), lr, momentum);
    for _ in 0..steps {
        let (bx, by) = ds.sample_batch(&mut rng, batch);
        let (_, grad) = model.loss_and_grad(&bx, &by);
        opt.step(model.params_mut(), &grad);
    }
    let trained = model.params();
    for (s, &p) in stats_out.iter_mut().zip(stats_positions) {
        *s = trained[p] - global[p];
    }
    vecops::masked_sub_into(out, trained, global, trainable_mask);
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Trains client `id` of `sim` for `steps` steps from `global` with the
/// fused routine (through the reused `slot`) and with the oracle, and
/// asserts bit-identical deltas and BN-statistic drifts — all zero when
/// `steps == 0`. Stale buffer contents must be overwritten, not
/// accumulated on, so the fused side starts from NaN.
fn assert_fused_matches_oracle(
    sim: &Simulation,
    global: &[f32],
    (id, steps, lr, seed): (usize, usize, f32, u64),
    slot: &mut TrainSlot,
    what: &str,
) {
    let cfg = sim.config();
    let model = sim.model();
    let dim = model.num_params();
    let trainable_mask = model.layout().trainable_mask();
    let stats_positions: Vec<usize> = trainable_mask.not().iter_ones().collect();
    let mut ref_out = vec![0.0f32; dim];
    let mut ref_stats = vec![0.0f32; stats_positions.len()];
    reference_local_train(
        model,
        global,
        sim.data(),
        id,
        steps,
        cfg.batch_size,
        lr,
        cfg.momentum,
        seed,
        &mut ref_out,
        &stats_positions,
        &mut ref_stats,
        &trainable_mask,
    );
    let mut new_out = vec![f32::NAN; dim];
    let mut new_stats = vec![f32::NAN; stats_positions.len()];
    local_train_into(
        model.topology(),
        global,
        sim.data(),
        id,
        steps,
        cfg.batch_size,
        lr,
        cfg.momentum,
        seed,
        &mut new_out,
        &stats_positions,
        &mut new_stats,
        &trainable_mask,
        slot,
    );
    assert!(
        bits_eq(&ref_out, &new_out),
        "trainable delta diverged ({what})"
    );
    assert!(
        bits_eq(&ref_stats, &new_stats),
        "BN-statistic drift diverged ({what})"
    );
    if steps == 0 {
        assert!(new_out.iter().chain(&new_stats).all(|v| v.to_bits() == 0));
    }
}

/// (1) Fused ≡ unfused, bit for bit, over model shapes (one hidden
/// layer with BatchNorm, two, one without it and plain SGD — `μ = 0` —
/// and no hidden layer at all),
/// 4 simulated rounds of evolving global weights, and **one slot reused
/// by every client of every shape and step count** — each client gets a
/// different `E` from {0, 1, 2, 10}, so every mix of first / middle /
/// last step follows every other through the same buffers and the
/// implicit velocity reset has to hold (a stale velocity or weight from
/// a longer client would show in a shorter one, and vice versa).
#[test]
fn fused_path_matches_unfused_oracle_bitwise() {
    let mut slot = TrainSlot::default();
    for (batch_norm, hidden, momentum) in [
        (true, vec![20], 0.9),
        (true, vec![12, 9], 0.9),
        (false, vec![20], 0.0),
        (false, vec![], 0.9),
    ] {
        let mut cfg = tiny_cfg(StrategyConfig::FedAvg, 1);
        cfg.model.batch_norm = batch_norm;
        cfg.model.hidden = hidden.clone();
        cfg.momentum = momentum;
        let sim = Simulation::new(cfg.clone());
        assert_eq!(sim.model().layout().statistic_count() == 0, !batch_norm);
        let mut global = sim.model().params().to_vec();
        let mut drift = seeded_rng(7, "global-drift", 0);
        for round in 0..4u32 {
            let lr = cfg.lr_at_round(round);
            for (i, id) in [0usize, 3, 7, 11, 19, 23].into_iter().enumerate() {
                let steps = [10usize, 1, 2, 0, 1, 10][(i + round as usize) % 6];
                let seed = derive_seed(
                    cfg.seed,
                    "local-train",
                    (u64::from(round) << 32) | id as u64,
                );
                let what = format!(
                    "bn={batch_norm} hidden={hidden:?} round {round} client {id} E={steps}"
                );
                assert_fused_matches_oracle(&sim, &global, (id, steps, lr, seed), &mut slot, &what);
            }
            // Drift the global weights so later rounds exercise fresh state.
            use rand::Rng;
            for w in global.iter_mut() {
                *w += drift.gen_range(-0.01f32..0.01f32);
            }
        }
    }
}

/// (1b) The wide benchmark shape, where the forward pass differs most
/// from the paper shape: hidden [4096] with BatchNorm over FEMNIST's 64
/// features and 62 classes, batch 4 (half a lane block of rows) and a
/// 4096-deep output-layer reduction; fused ≡ oracle for `E` ∈ {1, 2}.
#[test]
fn wide_topology_fused_path_matches_unfused_oracle_bitwise() {
    let mut cfg = tiny_cfg(StrategyConfig::FedAvg, 1);
    cfg.model.hidden = vec![4096];
    cfg.dataset.feature_dim = 64;
    cfg.dataset.classes = 62;
    cfg.batch_size = 4;
    let sim = Simulation::new(cfg.clone());
    assert!(sim.model().layout().statistic_count() > 0);
    let global = sim.model().params().to_vec();
    let mut slot = TrainSlot::default();
    for (id, steps) in [(0usize, 1usize), (3, 2), (7, 1)] {
        let seed = derive_seed(cfg.seed, "local-train", id as u64);
        let what = format!("wide client {id} E={steps}");
        assert_fused_matches_oracle(&sim, &global, (id, steps, 0.05, seed), &mut slot, &what);
    }
}

/// (2) The cohort entry point is the per-client routine in a loop: for
/// one client, an off-block three and a nine that spans two trace
/// blocks, with and without BN statistics (an empty statistics slice per
/// client must not end the loop early), every client's delta and drift
/// equal the oracle's — through one workspace reused across all shapes.
#[test]
fn cohort_entry_point_matches_unfused_oracle_per_client() {
    let mut workspace = gluefl_ml::BatchTrainScratch::new();
    for batch_norm in [false, true] {
        let mut cfg = tiny_cfg(StrategyConfig::FedAvg, 1);
        cfg.model.batch_norm = batch_norm;
        let sim = Simulation::new(cfg.clone());
        let model = sim.model();
        let dim = model.num_params();
        let global = model.params();
        let trainable_mask = model.layout().trainable_mask();
        let stats_positions: Vec<usize> = trainable_mask.not().iter_ones().collect();
        let stats_len = stats_positions.len();
        for clients in [1usize, 3, 9] {
            let ids: Vec<usize> = (0..clients).map(|c| c * 2 + 1).collect();
            let seeds: Vec<u64> = ids
                .iter()
                .map(|&id| derive_seed(cfg.seed, "local-train", id as u64))
                .collect();
            let mut got: Vec<Vec<f32>> = (0..clients).map(|_| vec![f32::NAN; dim]).collect();
            let mut got_stats = vec![f32::NAN; clients * stats_len];
            batch_local_train_into(
                model.topology(),
                global,
                sim.data(),
                &ids,
                &seeds,
                cfg.local_steps,
                cfg.batch_size,
                0.05,
                cfg.momentum,
                &mut got,
                &stats_positions,
                &mut got_stats,
                &trainable_mask,
                &mut workspace,
                None,
            );
            for (c, (&id, &seed)) in ids.iter().zip(&seeds).enumerate() {
                let mut want = vec![0.0f32; dim];
                let mut want_stats = vec![0.0f32; stats_len];
                reference_local_train(
                    model,
                    global,
                    sim.data(),
                    id,
                    cfg.local_steps,
                    cfg.batch_size,
                    0.05,
                    cfg.momentum,
                    seed,
                    &mut want,
                    &stats_positions,
                    &mut want_stats,
                    &trainable_mask,
                );
                assert!(
                    bits_eq(&want, &got[c]),
                    "delta diverged for client {c} (bn={batch_norm}, K={clients})"
                );
                assert!(
                    bits_eq(&want_stats, &got_stats[c * stats_len..(c + 1) * stats_len]),
                    "BN-statistic drift diverged for client {c} (bn={batch_norm}, K={clients})"
                );
            }
        }
    }
}

/// (3) Serial vs parallel client sharding: 4+ rounds of GlueFL and
/// FedAvg must be bit-identical under the runtime toggle. Single test fn
/// (the toggle is process-global within this binary).
#[cfg(feature = "parallel")]
#[test]
fn parallel_client_training_matches_serial_rounds_bitwise() {
    use gluefl_core::aggregate::set_parallel_enabled;
    use gluefl_core::{GlueFlParams, RoundRecord};
    let k = tiny_cfg(StrategyConfig::FedAvg, 1).round_size;
    let configs = || {
        vec![
            tiny_cfg(StrategyConfig::FedAvg, 5),
            tiny_cfg(
                StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
                5,
            ),
        ]
    };
    let run_all = |parallel: bool| -> Vec<RoundRecord> {
        set_parallel_enabled(parallel);
        let mut recs = Vec::new();
        for cfg in configs() {
            let mut sim = Simulation::new(cfg);
            for _ in 0..5 {
                recs.push(sim.step());
            }
        }
        set_parallel_enabled(true);
        recs
    };
    let parallel = run_all(true);
    let serial = run_all(false);
    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.down_bytes, s.down_bytes, "round {}", p.round);
        assert_eq!(p.up_bytes, s.up_bytes, "round {}", p.round);
        assert_eq!(
            p.changed_positions, s.changed_positions,
            "round {}",
            p.round
        );
        assert_eq!(
            p.accuracy.map(f64::to_bits),
            s.accuracy.map(f64::to_bits),
            "accuracy bits diverged at round {}",
            p.round
        );
        assert_eq!(p.loss.map(f64::to_bits), s.loss.map(f64::to_bits));
    }
}
