//! End-to-end wire-codec gates on the full simulator: the F32 round
//! trip is deterministic and trains, lossy codecs shrink measured bytes
//! while training still runs (finite accuracy, support preserved), and
//! the entropy layouts keep the F32 trajectory at fewer bytes. That
//! every offer and broadcast is priced at its encoded frame length, for
//! every strategy and codec, is `crates/core/tests/reference_round.rs`'s
//! to pin.

use gluefl_core::{GlueFlParams, SimConfig, Simulation, StrategyConfig, WireCodec, WirePolicy};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

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
