//! Quickstart: train a small federated model with GlueFL and watch the
//! bandwidth counters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This example doubles as living documentation for the simulation
//! config: every knob used below is annotated with what it controls and
//! where it comes from in the paper. Internally each round's aggregate is
//! a `MaskedUpdate` (support mask + packed values) that the simulator
//! applies with word-level kernels — the "positions changed" column
//! printed below counts that update's nonzero covered positions plus the
//! BatchNorm statistics whose Appendix-D round mean moved, so it tracks
//! (and slightly exceeds) the `q`-bounded mask support.
//!
//! The tail of the example drops below the `Simulation` facade and runs
//! one client through the public training API directly — the shared
//! `MlpTopology`, a pooled `TrainSlot`, and `local_train_into` — the same
//! allocation-free, GEMM-backed path the simulator shards across worker
//! threads.

use gluefl_core::{
    bytes_to_mb, local_train_into, GlueFlParams, SimConfig, Simulation, StrategyConfig, TrainSlot,
};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_tensor::rng::derive_seed;

fn main() {
    // `paper_setup` bundles the paper's §5.1 defaults for one
    // dataset/model pair. Its knobs:
    //   * `DatasetProfile::Femnist` — synthetic stand-in for FEMNIST:
    //     class count, feature dimension, non-IID label skew, and the
    //     heavy-tailed per-client sample sizes that drive the importance
    //     weights `p_i`.
    //   * `DatasetModel::ShuffleNet` — the flat-parameter MLP profile
    //     standing in for ShuffleNet, including the paper-scale reference
    //     parameter count used for bandwidth-at-paper-scale reporting.
    //   * strategy — replaced two lines down; `paper_setup` needs a
    //     placeholder.
    //   * `0.05` — population scale: 5% of the paper's FEMNIST client
    //     count, so the example runs in seconds on a laptop.
    //   * `60` — rounds to simulate.
    //   * `42` — the master seed. Data, model init, links, device
    //     speeds, availability, and every client's local training derive
    //     deterministically from it: same seed, same run, bit for bit.
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        StrategyConfig::FedAvg, // replaced below
        0.05,
        60,
        42,
    );

    // GlueFL with the paper's defaults scaled to the round size `K`:
    //   * `q` = 20% — total upload mask ratio per client;
    //   * `q_shr` = 16% — the shared-mask portion (positions the server
    //     already knows, uploaded without coordinates);
    //   * sticky group `S` and per-round sticky draw `C` sized from `K`
    //     (§3.1), so most participants repeat and stay mask-aligned;
    //   * mask regeneration interval + re-scaled error compensation
    //     (§3.3) as in the paper's main runs.
    cfg.strategy = StrategyConfig::GlueFl(GlueFlParams::paper_default(
        cfg.round_size,
        DatasetModel::ShuffleNet,
    ));

    // Evaluate on the held-out test set every 10 rounds (evaluation is
    // outside the simulated protocol; it just reads the global model).
    cfg.eval_every = 10;

    println!(
        "GlueFL quickstart: N = {} clients, K = {} per round, {} rounds",
        cfg.dataset.clients, cfg.round_size, cfg.rounds
    );
    let mut sim = Simulation::new(cfg);
    println!(
        "model: {} parameters ({} trainable)",
        sim.model().num_params(),
        sim.model().layout().trainable_count()
    );

    let mut cum_down = 0u64;
    let mut cum_up_analytic = 0u64;
    let mut cum_up_wire = 0u64;
    for _ in 0..sim.config().rounds {
        let rec = sim.step();
        cum_down += rec.down_bytes;
        cum_up_analytic += rec.up_bytes;
        // Since PR 5 every upload is actually serialized through the
        // gluefl-wire codec inside the round loop; `wire_up_bytes` is
        // the *measured* frame total. Under the default F32 codec it
        // equals the analytic `up_bytes` bit-for-bit.
        cum_up_wire += rec.wire_up_bytes;
        if let Some(acc) = rec.accuracy {
            println!(
                "round {:>3}: accuracy {:>5.1}%  |  down {:>7.2} MB cumulative  \
                 |  {:>4} positions changed",
                rec.round,
                acc * 100.0,
                bytes_to_mb(cum_down),
                rec.changed_positions
            );
        }
    }
    println!("done: downstream total {:.2} MB", bytes_to_mb(cum_down));
    println!(
        "upstream total: analytic {:.2} MB, measured on the wire {:.2} MB \
         (equal under the F32 codec)",
        bytes_to_mb(cum_up_analytic),
        bytes_to_mb(cum_up_wire)
    );
    assert_eq!(cum_up_analytic, cum_up_wire);

    // --- Accuracy vs bytes under different wire policies. ---
    // `SimConfig::wire` carries the whole encoding policy: the value
    // codec (F32 / F16 / QuantU8 — one byte per value plus a per-64-block
    // scale, deterministic stochastic rounding seeded per round+client),
    // the position-section layout (`legacy` pins the v1 bitmap/index
    // sections; `entropy` lets the writer pick delta-varint or RLE
    // sections when they are cheaper), and whether quantization residual
    // feeds back into error compensation. Same data, sampling, and
    // network randomness — only the wire representation changes.
    let compare_rounds = 20;
    let run_with = |wire: gluefl_core::WirePolicy| {
        let mut c = sim.config().clone();
        c.rounds = compare_rounds;
        c.eval_every = compare_rounds;
        // Keep every invited client (no over-commitment): measured frame
        // lengths drive per-client upload times, so under keep-fastest a
        // cheaper encoding can change which stragglers get dropped — a
        // real effect, but here we want the policies compared on the
        // same kept cohort so the F32 arms are bit-identical.
        c.oc = 1.0;
        c.wire = wire;
        let r = gluefl_core::Simulation::new(c).run();
        let up: u64 = r.rounds.iter().map(|x| x.wire_up_bytes).sum();
        (r.total.accuracy, up)
    };
    let (acc_f32, up_f32) = run_with(gluefl_core::WirePolicy::legacy(gluefl_core::WireCodec::F32));
    let (acc_ent, up_ent) = run_with(gluefl_core::WirePolicy::entropy(
        gluefl_core::WireCodec::F32,
    ));
    let (acc_q8, up_q8) = run_with(gluefl_core::WirePolicy::entropy(
        gluefl_core::WireCodec::QuantU8,
    ));
    println!(
        "\nwire-policy demo ({compare_rounds} rounds): \
         legacy f32 {:.1}% @ {:.2} MB up  |  \
         entropy f32 {:.1}% @ {:.2} MB ({:.0}% of legacy)  |  \
         entropy quant-u8 {:.1}% @ {:.2} MB ({:.0}%)",
        acc_f32 * 100.0,
        bytes_to_mb(up_f32),
        acc_ent * 100.0,
        bytes_to_mb(up_ent),
        100.0 * up_ent as f64 / up_f32 as f64,
        acc_q8 * 100.0,
        bytes_to_mb(up_q8),
        100.0 * up_q8 as f64 / up_f32 as f64
    );
    // Entropy layouts re-encode positions only; decoded values — and so
    // the trajectory — are bit-identical to legacy F32.
    assert_eq!(acc_f32.to_bits(), acc_ent.to_bits());
    assert!(up_ent <= up_f32);

    // --- Under the hood: one client step through the public training API.
    //
    // The simulator's whole training phase is built from these pieces, and
    // they are public so experiments can drive clients directly:
    //   * `MlpTopology` — the immutable architecture, shared by reference
    //     across every client (and worker thread). No model clones.
    //   * `TrainSlot` — one worker's pooled workspace (a client's working
    //     weights + `TrainScratch`); reusing one slot makes repeated
    //     client training allocation-free in steady state, and nothing
    //     of one client leaks into the next.
    //   * `local_train_into` — E local SGD-with-momentum steps, each
    //     touching each weight once (the first reads the global model in
    //     place, the last writes the delta), deterministic in its
    //     arguments alone (the seed fixes the minibatch draws, so any
    //     worker thread produces the same bits).
    let cfg = sim.config().clone();
    let topo = sim.model().topology();
    let global = sim.model().params().to_vec();
    let trainable_mask = sim.model().layout().trainable_mask();
    let stats_positions: Vec<usize> = trainable_mask.not().iter_ones().collect();
    let mut slot = TrainSlot::default(); // production code takes one from a ScratchPool
    let mut delta = vec![0.0f32; sim.model().num_params()];
    let mut stats_drift = vec![0.0f32; stats_positions.len()];
    local_train_into(
        topo,
        &global,
        sim.data(),
        0, // client id
        cfg.local_steps,
        cfg.batch_size,
        cfg.lr_at_round(0),
        cfg.momentum,
        derive_seed(cfg.seed, "quickstart-demo", 0),
        &mut delta,
        &stats_positions,
        &mut stats_drift,
        &trainable_mask,
        &mut slot,
    );
    let l2: f32 = delta.iter().map(|d| d * d).sum::<f32>().sqrt();
    println!(
        "client 0 demo: {} local steps produced a delta with ‖Δ‖₂ = {l2:.3} \
         over {} trainable positions ({} BN statistics tracked separately)",
        cfg.local_steps,
        trainable_mask.count_ones(),
        stats_positions.len()
    );
}
