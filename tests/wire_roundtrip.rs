//! End-to-end wire-codec gates on the full simulator.
//!
//! 1. **F32 measured ≡ analytic** — with the default `F32` codec, the
//!    bytes offered for every round's uploads equal the analytic ledger
//!    bit-for-bit, for every strategy (including ternary-quantized STC
//!    and GlueFL's two-frame split upload) — and every kept upload's
//!    encoded length is checked against its offer by the in-process
//!    clients, so a run that completes has met the encoder — and the
//!    measured broadcast equals the dense-model + mask-bitmap closed
//!    form.
//! 2. **Lossy codecs shrink measured bytes** while training still runs
//!    (finite accuracy, support preserved).
//! 3. **QuantU8 serial ≡ parallel** — deterministic stochastic rounding
//!    is seeded from `(seed, round, client)`, so a quantized simulation
//!    is bit-identical between serial execution and the `parallel`
//!    feature's threaded training (CI's parallel leg).

use gluefl_compress::ApfConfig;
use gluefl_core::{GlueFlParams, SimConfig, Simulation, StrategyConfig, WireCodec, WirePolicy};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

/// Frame header bytes, restated: the closed forms below are this file's
/// own reference, not the wire crate's.
const HEADER_BYTES: u64 = 16;

fn cfg(strategy: StrategyConfig, rounds: u32) -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        strategy,
        0.01,
        rounds,
        23,
    );
    cfg.model.hidden = vec![24];
    cfg.dataset.feature_dim = 12;
    cfg.dataset.classes = 8;
    cfg.dataset.test_samples = 100;
    cfg.eval_every = 3;
    cfg.availability = None;
    cfg
}

fn all_strategies(k: usize) -> Vec<StrategyConfig> {
    vec![
        StrategyConfig::FedAvg,
        StrategyConfig::MdFedAvg,
        StrategyConfig::Stc { q: 0.2 },
        StrategyConfig::StcQuantized { q: 0.2 },
        StrategyConfig::Apf {
            config: ApfConfig::default(),
        },
        StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
    ]
}

/// Whether a strategy broadcasts a mask bitmap each sync (GlueFL's
/// shared mask, APF's active mask).
fn broadcasts_mask(strategy: &StrategyConfig) -> bool {
    matches!(
        strategy,
        StrategyConfig::Apf { .. } | StrategyConfig::GlueFl(_)
    )
}

#[test]
fn f32_measured_bytes_equal_analytic_for_every_strategy() {
    let k = cfg(StrategyConfig::FedAvg, 1).round_size;
    for strategy in all_strategies(k) {
        let mut sim = Simulation::new(cfg(strategy.clone(), 6));
        let dim = sim.model().num_params();
        let mask_bytes = if broadcasts_mask(&strategy) {
            (dim as u64).div_ceil(8) + HEADER_BYTES
        } else {
            0
        };
        for _ in 0..6 {
            let rec = sim.step();
            assert_eq!(
                rec.wire_up_bytes, rec.up_bytes,
                "{strategy:?}: measured upload bytes diverged from analytic at round {}",
                rec.round
            );
            assert_eq!(
                rec.wire_broadcast_bytes,
                HEADER_BYTES + 4 * dim as u64 + mask_bytes,
                "{strategy:?}: measured broadcast diverged at round {}",
                rec.round
            );
            assert!(rec.wire_up_bytes > 0);
        }
    }
}

/// The F32 wire round-trip must not perturb the training trajectory:
/// run-to-run determinism plus a sanity floor on accuracy (the same
/// bound `tests/end_to_end.rs` uses for the no-wire baseline history).
#[test]
fn f32_roundtrip_is_deterministic_and_trains() {
    let run = || {
        let mut c = cfg(StrategyConfig::FedAvg, 20);
        c.initial_lr = 0.05;
        c.eval_every = 20;
        Simulation::new(c).run()
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.total.accuracy.to_bits(),
        b.total.accuracy.to_bits(),
        "wire round-trip broke determinism"
    );
    assert!(
        a.total.accuracy > 0.3,
        "accuracy {} barely above chance",
        a.total.accuracy
    );
}

#[test]
fn lossy_codecs_shrink_measured_bytes_and_still_train() {
    for codec in [WireCodec::F16, WireCodec::QuantU8] {
        let k = cfg(StrategyConfig::FedAvg, 1).round_size;
        let mut c = cfg(
            StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
            8,
        );
        c.wire = WirePolicy::legacy(codec);
        let result = Simulation::new(c).run();
        for rec in &result.rounds {
            assert!(
                rec.wire_up_bytes < rec.up_bytes,
                "{codec:?}: measured {} not below analytic {}",
                rec.wire_up_bytes,
                rec.up_bytes
            );
        }
        let acc = result.total.accuracy;
        assert!(acc.is_finite() && acc > 0.0, "{codec:?}: accuracy {acc}");
    }
}

/// The v2 entropy layouts (delta-varint indices, RLE mask sections) are
/// pure re-encodings of the same positions: every decoded value is
/// bit-identical, so the training trajectory — and therefore every
/// accuracy sample — matches legacy F32 exactly, while the measured
/// wire bytes only shrink (the writer keeps a v1 section whenever it is
/// cheaper).
///
/// Over-commitment is pinned off (`oc = 1.0`, keep == invited): measured
/// frame lengths deliberately drive per-client upload times, so under
/// keep-fastest a cheaper encoding can legitimately change *which*
/// stragglers get dropped — a real systems effect, not an encoding bug.
/// With every invited client kept, bytes only reach the metrics, and
/// trajectory invariance is exact rather than seed-lucky.
#[test]
fn entropy_layouts_keep_f32_trajectory_at_fewer_measured_bytes() {
    let k = cfg(StrategyConfig::FedAvg, 1).round_size;
    let run = |wire: WirePolicy| {
        let mut c = cfg(
            StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
            6,
        );
        c.oc = 1.0;
        c.wire = wire;
        let mut sim = Simulation::new(c);
        (0..6).map(|_| sim.step()).collect::<Vec<_>>()
    };
    let legacy = run(WirePolicy::legacy(WireCodec::F32));
    let entropy = run(WirePolicy::entropy(WireCodec::F32));
    let mut shrunk = false;
    for (l, e) in legacy.iter().zip(&entropy) {
        assert_eq!(
            l.accuracy.map(f64::to_bits),
            e.accuracy.map(f64::to_bits),
            "entropy layout perturbed the F32 trajectory at round {}",
            l.round
        );
        assert_eq!(l.changed_positions, e.changed_positions);
        assert_eq!(l.up_bytes, e.up_bytes, "analytic accounting must not move");
        assert!(
            e.wire_up_bytes <= l.wire_up_bytes,
            "entropy upload grew at round {}: {} > {}",
            l.round,
            e.wire_up_bytes,
            l.wire_up_bytes
        );
        assert!(
            e.wire_broadcast_bytes <= l.wire_broadcast_bytes,
            "entropy broadcast grew at round {}",
            l.round
        );
        shrunk |= e.wire_up_bytes < l.wire_up_bytes;
    }
    assert!(shrunk, "entropy layouts never beat the v1 sections");
}

/// QuantU8's stochastic rounding must be a pure function of
/// `(seed, round, client)`: two runs of the same quantized config agree
/// bit for bit.
#[test]
fn quantized_runs_are_reproducible() {
    let run = || {
        let mut c = cfg(StrategyConfig::Stc { q: 0.2 }, 6);
        c.wire = WirePolicy::legacy(WireCodec::QuantU8);
        let mut sim = Simulation::new(c);
        (0..6).map(|_| sim.step()).collect::<Vec<_>>()
    };
    for (x, y) in run().iter().zip(&run()) {
        assert_eq!(x.wire_up_bytes, y.wire_up_bytes);
        assert_eq!(x.changed_positions, y.changed_positions);
        assert_eq!(
            x.accuracy.map(f64::to_bits),
            y.accuracy.map(f64::to_bits),
            "quantized run not reproducible at round {}",
            x.round
        );
    }
}

/// CI's parallel-leg gate for the codec axis: a QuantU8 simulation is
/// bit-identical between serial execution and threaded training —
/// the quantization seed depends on
/// `(seed, round, client)`, never on thread schedule.
#[cfg(feature = "parallel")]
#[test]
fn quantized_run_bit_identical_serial_vs_parallel() {
    use gluefl_core::aggregate::set_parallel_enabled;
    let k = cfg(StrategyConfig::FedAvg, 1).round_size;
    let configs = || {
        vec![
            cfg(StrategyConfig::FedAvg, 4),
            cfg(
                StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
                4,
            ),
        ]
    };
    let run_all = |parallel: bool| {
        set_parallel_enabled(parallel);
        let mut recs = Vec::new();
        for mut c in configs() {
            c.wire = WirePolicy::legacy(WireCodec::QuantU8);
            let mut sim = Simulation::new(c);
            for _ in 0..4 {
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
        assert_eq!(p.wire_up_bytes, s.wire_up_bytes);
        assert_eq!(p.up_bytes, s.up_bytes);
        assert_eq!(p.changed_positions, s.changed_positions);
        assert_eq!(
            p.accuracy.map(f64::to_bits),
            s.accuracy.map(f64::to_bits),
            "quantized accuracy bits diverged at round {}",
            p.round
        );
    }
}
